#include "obs/timeline.h"

#include <algorithm>

#include "common/json.h"

namespace wsn {

namespace {

std::uint64_t to_ns(std::chrono::steady_clock::duration d) noexcept {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

namespace obs_detail {

namespace {
thread_local std::uint64_t t_request_tag = 0;
}  // namespace

std::uint64_t request_tag() noexcept { return t_request_tag; }

void set_request_tag(std::uint64_t tag) noexcept { t_request_tag = tag; }

void timeline_record_span(const char* name,
                          std::chrono::steady_clock::time_point begin,
                          std::chrono::steady_clock::time_point end) noexcept {
  Timeline& timeline = Timeline::instance();
  // Both stamps share the timeline epoch so records from different
  // threads land on one comparable axis.
  const std::uint64_t end_ns = timeline.now_ns();
  const std::uint64_t span_ns = to_ns(end - begin);
  timeline.record(name, end_ns >= span_ns ? end_ns - span_ns : 0, end_ns);
}

}  // namespace obs_detail

Timeline::Timeline() : epoch_(std::chrono::steady_clock::now()) {}

Timeline& Timeline::instance() {
  static Timeline timeline;
  return timeline;
}

void Timeline::set_enabled(bool enabled) noexcept {
  if (enabled) {
    obs_detail::profile_mode().fetch_or(obs_detail::kProfileTimeline,
                                        std::memory_order_relaxed);
  } else {
    obs_detail::profile_mode().fetch_and(~obs_detail::kProfileTimeline,
                                         std::memory_order_relaxed);
  }
}

void Timeline::set_thread_capacity(std::size_t records) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  capacity_pow2_ = round_up_pow2(records);
}

std::uint64_t Timeline::now_ns() const noexcept {
  return to_ns(std::chrono::steady_clock::now() - epoch_);
}

Timeline::Ring& Timeline::local_ring() {
  thread_local Ring* ring = nullptr;
  thread_local const Timeline* owner = nullptr;
  // The singleton never moves, but tests that hammer threads across
  // suites reuse pool threads; the owner check keeps the cached pointer
  // honest if a second Timeline ever exists (it does not today).
  if (ring == nullptr || owner != this) {
    // Fill the ring (2 MB at the default capacity) outside the registry
    // lock: threads registering together would otherwise zero their rings
    // one after another, and a late-starting worker could miss a short run.
    std::size_t capacity = 0;
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      capacity = capacity_pow2_;
    }
    auto fresh = std::make_unique<Ring>(capacity);
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    rings_.push_back(std::move(fresh));
    ring = rings_.back().get();
    owner = this;
  }
  return *ring;
}

void Timeline::record(const char* name, std::uint64_t begin_ns,
                      std::uint64_t end_ns, std::uint64_t tag) noexcept {
  if (!enabled()) return;
  Ring& ring = local_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  TimelineRecord& slot = ring.slots[head & ring.mask];
  slot.begin_ns = begin_ns;
  slot.end_ns = end_ns;
  slot.tag = tag != 0 ? tag : obs_detail::request_tag();
  slot.name = name;
  // Release-publish: a reader that acquires `head` sees the slot fields.
  ring.head.store(head + 1, std::memory_order_release);
}

void Timeline::record_wait(const char* name, std::uint64_t wait_ns,
                           std::uint64_t tag) noexcept {
  if (!enabled()) return;
  const std::uint64_t end_ns = now_ns();
  record(name, end_ns >= wait_ns ? end_ns - wait_ns : 0, end_ns, tag);
}

void Timeline::set_thread_label(const std::string& label) {
  Ring& ring = local_ring();
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  ring.label = label;
}

std::vector<TimelineThreadDump> Timeline::snapshot() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<TimelineThreadDump> out;
  out.reserve(rings_.size());
  for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
    const Ring& ring = *rings_[tid];
    TimelineThreadDump dump;
    dump.tid = static_cast<std::uint32_t>(tid);
    dump.label = ring.label;
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t capacity = ring.mask + 1;
    const std::uint64_t kept = std::min(head, capacity);
    dump.dropped = head - kept;
    dump.records.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = head - kept; i < head; ++i) {
      dump.records.push_back(ring.slots[i & ring.mask]);
    }
    out.push_back(std::move(dump));
  }
  return out;
}

void Timeline::reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
    ring->label.clear();
  }
}

void write_timeline_jsonl(std::ostream& out,
                          const std::vector<TimelineThreadDump>& threads) {
  std::size_t total = 0;
  for (const TimelineThreadDump& t : threads) total += t.records.size();
  {
    JsonWriter w;
    w.begin_object()
        .member("schema", "meshbcast.timeline")
        .member("version", std::uint64_t{1})
        .member("threads", std::uint64_t{threads.size()})
        .member("records", std::uint64_t{total})
        .end_object();
    out << std::move(w).str() << "\n";
  }
  for (const TimelineThreadDump& t : threads) {
    JsonWriter w;
    w.begin_object()
        .member("thread", std::uint64_t{t.tid})
        .member("label", t.label)
        .member("records", std::uint64_t{t.records.size()})
        .member("dropped", t.dropped)
        .end_object();
    out << std::move(w).str() << "\n";
  }
  for (const TimelineThreadDump& t : threads) {
    for (const TimelineRecord& r : t.records) {
      JsonWriter w;
      w.begin_object()
          .member("thread", std::uint64_t{t.tid})
          .member("name", r.name == nullptr ? "" : r.name)
          .member("begin_ns", r.begin_ns)
          .member("end_ns", r.end_ns);
      if (r.tag != 0) w.member("req", r.tag);
      w.end_object();
      out << std::move(w).str() << "\n";
    }
  }
}

void write_timeline_perfetto(std::ostream& out,
                             const std::vector<TimelineThreadDump>& threads) {
  // Chrome trace-event "complete" (ph:X) events; timestamps in
  // microseconds as the format requires, durations kept >= 1 us so
  // sub-microsecond spans stay visible instead of vanishing.
  out << "[";
  bool first = true;
  for (const TimelineThreadDump& t : threads) {
    if (!t.label.empty()) {
      out << (first ? "" : ",\n")
          << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << t.tid << ",\"args\":{\"name\":\"" << json_escape(t.label)
          << "\"}}";
      first = false;
    }
    for (const TimelineRecord& r : t.records) {
      const std::uint64_t dur_ns =
          r.end_ns >= r.begin_ns ? r.end_ns - r.begin_ns : 0;
      out << (first ? "" : ",\n") << "{\"name\":\""
          << json_escape(r.name == nullptr ? "" : r.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t.tid
          << ",\"ts\":" << r.begin_ns / 1000 << ",\"dur\":"
          << std::max<std::uint64_t>(1, dur_ns / 1000) << "}";
      first = false;
    }
  }
  out << "]\n";
}

}  // namespace wsn
