#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/events.h"

/// Ring-buffered event sink.
///
/// Recording must be cheap enough to leave on for full paper-sized runs,
/// so the sink is a bounded ring that keeps the *most recent* `capacity`
/// events: long runs lose their oldest history, never their tail, and
/// `dropped()` says exactly how much fell off.  Per-kind totals are
/// counted for every recorded event -- dropped or retained -- so
/// aggregate checks (e.g. "collision events == BroadcastStats::collisions")
/// hold regardless of retention.
///
/// The ring grows on demand: storage is appended event by event until
/// `capacity` events are held, and only then does the sink start
/// overwriting its oldest slot.  A sink that never records allocates
/// nothing, and one that records a few thousand events pays for a few
/// thousand, not for `capacity` -- so callers may build a default sink on
/// every run whether or not an observer ends up installed.
///
/// Like FaultModel and BatteryBank, a sink is owned by one run at a time:
/// `record` is not synchronized and must not be shared across concurrent
/// simulations (metrics -- obs/metrics.h -- are the thread-safe half of the
/// observability story).
namespace wsn {

class EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit EventSink(std::size_t capacity = kDefaultCapacity);

  void record(const Event& event);

  /// Retained events in chronological order (oldest first).
  [[nodiscard]] std::vector<Event> events() const;

  /// Events recorded since construction/clear, dropped ones included.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Events that fell off the ring (total - retained).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - ring_.size();
  }
  /// Retained event count (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// The most events the ring retains.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events the sink has allocated room for so far (<= capacity); 0 until
  /// the first `record`.
  [[nodiscard]] std::size_t storage() const noexcept {
    return ring_.capacity();
  }
  /// Sinks in this process that have allocated event storage, counted
  /// once per sink at its first allocation.  Lets a test prove that a
  /// path which builds a sink but never observes allocates no ring.
  [[nodiscard]] static std::uint64_t rings_allocated() noexcept;

  /// Total recorded events of `kind`, dropped ones included.
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Forgets every event and zeroes all counts; capacity and allocated
  /// storage are kept.
  void clear() noexcept;

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;     // once full: the slot the next event lands in
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kEventKindCount> kind_counts_{};
};

}  // namespace wsn
