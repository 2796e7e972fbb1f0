#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/serialize.h"

/// Thread-safe sharded-LRU cache of compiled plans.
///
/// The contention profile is a source sweep: every `parallel_for` worker
/// looks up (and occasionally inserts) plans against one shared cache.
/// Keys are uniform 128-bit hashes, so sharding by `key.lo` spreads the
/// workers across independent mutexes; within a shard, a classic
/// list+map LRU keeps get/put O(1).  Values are `shared_ptr<const
/// StoredPlan>`: a hit hands out a reference the caller can keep using
/// after the entry is evicted, and concurrent readers share one immutable
/// plan instead of copying 512 offset vectors per lookup.
///
/// Capacity is bounded per shard (total/shards, rounded up), so the
/// worst-case footprint is `capacity + shards - 1` entries.  Hit, miss,
/// insertion and eviction counts are kept in local atomics and, once
/// `bind_metrics` is called, mirrored into a MetricsRegistry
/// (`store.mem.hits` etc.) so sweeps expose their cache behavior through
/// the same scrape as the simulator counters.
namespace wsn {

class ShardedPlanCache {
 public:
  struct Config {
    /// Total entry bound across shards (>= 1).
    std::size_t capacity = 2048;
    /// Lock shards (>= 1); 16 matches the metrics registry's sharding.
    std::size_t shards = 16;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Shard-lock acquisitions that found the lock held (try_lock
    /// failed) and the total nanoseconds those blocked acquisitions
    /// waited.  The uncontended path costs one try_lock and never reads
    /// a clock.
    std::uint64_t lock_waits = 0;
    std::uint64_t lock_wait_ns = 0;
  };

  ShardedPlanCache();
  explicit ShardedPlanCache(Config config);

  /// Mirrors the counters into `registry` as `<prefix>.hits` etc.  Call
  /// before handing the cache to concurrent workers.
  void bind_metrics(MetricsRegistry& registry,
                    std::string_view prefix = "store.mem");

  /// The cached plan, refreshed to most-recently-used; nullptr on miss.
  [[nodiscard]] std::shared_ptr<const StoredPlan> get(const PlanKey& key);

  /// The cached plan without counting a hit or miss or refreshing its
  /// LRU position; nullptr when absent.  For a caller re-checking a key
  /// whose lookup it already counted.
  [[nodiscard]] std::shared_ptr<const StoredPlan> peek(const PlanKey& key);

  /// Inserts or refreshes `key`, evicting the shard's LRU tail when over
  /// capacity.
  void put(const PlanKey& key, std::shared_ptr<const StoredPlan> value);

  /// Entries currently resident, summed over shards.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] Stats stats() const noexcept;

  void clear();

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const StoredPlan> value;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash>
        index;
  };

  [[nodiscard]] Shard& shard_for(const PlanKey& key) noexcept {
    return shards_[key.lo % shards_.size()];
  }
  void count(std::atomic<std::uint64_t>& local, Counter* mirrored) noexcept {
    local.fetch_add(1, std::memory_order_relaxed);
    if (mirrored != nullptr) mirrored->increment();
  }

  /// Takes the shard mutex, timing the acquisition only when a try_lock
  /// probe finds it held.  A contended acquisition feeds the lock-wait
  /// stats, the `<prefix>.lock_wait_ms` histogram (when bound) and the
  /// span timeline as "store.lock_wait".
  [[nodiscard]] std::unique_lock<std::mutex> acquire_shard(Shard& shard);

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> lock_waits_{0};
  std::atomic<std::uint64_t> lock_wait_ns_{0};
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Counter* insertions_metric_ = nullptr;
  Counter* evictions_metric_ = nullptr;
  Histogram* lock_wait_metric_ = nullptr;
};

}  // namespace wsn
