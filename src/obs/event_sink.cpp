#include "obs/event_sink.h"

#include <algorithm>
#include <atomic>

#include "common/assert.h"

namespace wsn {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTx: return "tx";
    case EventKind::kRx: return "rx";
    case EventKind::kDuplicate: return "dup";
    case EventKind::kCollision: return "coll";
    case EventKind::kLossFading: return "fade";
    case EventKind::kLossCrash: return "crash";
    case EventKind::kRelayActivation: return "relay_on";
    case EventKind::kPipelineDefer: return "defer";
  }
  return "?";
}

bool event_kind_from_string(std::string_view name, EventKind& out) noexcept {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (to_string(kind) == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

namespace {
/// First allocation of a growing ring, in events (clamped to capacity).
constexpr std::size_t kInitialStorage = 256;
std::atomic<std::uint64_t> g_rings_allocated{0};
}  // namespace

EventSink::EventSink(std::size_t capacity) : capacity_(capacity) {
  WSN_EXPECTS(capacity >= 1);
}

void EventSink::record(const Event& event) {
  if (ring_.size() < capacity_) {
    // Growth phase: append, doubling storage but never past capacity_.
    if (ring_.size() == ring_.capacity()) {
      if (ring_.capacity() == 0) {
        g_rings_allocated.fetch_add(1, std::memory_order_relaxed);
      }
      ring_.reserve(std::min(
          capacity_, std::max(kInitialStorage, 2 * ring_.capacity())));
    }
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  }
  total_ += 1;
  kind_counts_[static_cast<std::size_t>(event.kind)] += 1;
}

std::uint64_t EventSink::rings_allocated() noexcept {
  return g_rings_allocated.load(std::memory_order_relaxed);
}

std::vector<Event> EventSink::events() const {
  // `next_` is the oldest retained slot (0 until the ring first wraps).
  std::vector<Event> out;
  out.reserve(ring_.size());
  const auto start = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
  out.insert(out.end(), start, ring_.end());
  out.insert(out.end(), ring_.begin(), start);
  return out;
}

void EventSink::clear() noexcept {
  ring_.clear();
  next_ = 0;
  total_ = 0;
  kind_counts_.fill(0);
}

}  // namespace wsn
