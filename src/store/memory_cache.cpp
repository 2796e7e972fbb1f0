#include "store/memory_cache.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/assert.h"
#include "obs/timeline.h"

namespace wsn {

ShardedPlanCache::ShardedPlanCache() : ShardedPlanCache(Config{}) {}

ShardedPlanCache::ShardedPlanCache(Config config)
    : per_shard_capacity_((std::max<std::size_t>(config.capacity, 1) +
                           std::max<std::size_t>(config.shards, 1) - 1) /
                          std::max<std::size_t>(config.shards, 1)),
      shards_(std::max<std::size_t>(config.shards, 1)) {}

void ShardedPlanCache::bind_metrics(MetricsRegistry& registry,
                                    std::string_view prefix) {
  const std::string base(prefix);
  hits_metric_ = &registry.counter(base + ".hits");
  misses_metric_ = &registry.counter(base + ".misses");
  insertions_metric_ = &registry.counter(base + ".insertions");
  evictions_metric_ = &registry.counter(base + ".evictions");
  lock_wait_metric_ = &registry.histogram(
      base + ".lock_wait_ms",
      {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0});
}

std::unique_lock<std::mutex> ShardedPlanCache::acquire_shard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    const auto start = std::chrono::steady_clock::now();
    lock.lock();
    const auto waited = std::chrono::steady_clock::now() - start;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count();
    const std::uint64_t wait_ns =
        ns <= 0 ? 1 : static_cast<std::uint64_t>(ns);
    lock_waits_.fetch_add(1, std::memory_order_relaxed);
    lock_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    if (lock_wait_metric_ != nullptr) {
      lock_wait_metric_->observe(static_cast<double>(wait_ns) / 1e6);
    }
    Timeline::instance().record_wait("store.lock_wait", wait_ns);
  }
  return lock;
}

std::shared_ptr<const StoredPlan> ShardedPlanCache::get(const PlanKey& key) {
  Shard& shard = shard_for(key);
  std::shared_ptr<const StoredPlan> value;
  {
    const std::unique_lock<std::mutex> lock = acquire_shard(shard);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      value = it->second->value;
    }
  }
  if (value == nullptr) {
    count(misses_, misses_metric_);
  } else {
    count(hits_, hits_metric_);
  }
  return value;
}

std::shared_ptr<const StoredPlan> ShardedPlanCache::peek(const PlanKey& key) {
  Shard& shard = shard_for(key);
  const std::unique_lock<std::mutex> lock = acquire_shard(shard);
  const auto it = shard.index.find(key);
  return it == shard.index.end() ? nullptr : it->second->value;
}

void ShardedPlanCache::put(const PlanKey& key,
                           std::shared_ptr<const StoredPlan> value) {
  WSN_EXPECTS(value != nullptr);
  Shard& shard = shard_for(key);
  bool inserted = false;
  bool evicted = false;
  {
    const std::unique_lock<std::mutex> lock = acquire_shard(shard);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value)});
      shard.index.emplace(key, shard.lru.begin());
      inserted = true;
      if (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        evicted = true;
      }
    }
  }
  if (inserted) count(insertions_, insertions_metric_);
  if (evicted) count(evictions_, evictions_metric_);
}

std::size_t ShardedPlanCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

ShardedPlanCache::Stats ShardedPlanCache::stats() const noexcept {
  return Stats{hits_.load(std::memory_order_relaxed),
               misses_.load(std::memory_order_relaxed),
               insertions_.load(std::memory_order_relaxed),
               evictions_.load(std::memory_order_relaxed),
               lock_waits_.load(std::memory_order_relaxed),
               lock_wait_ns_.load(std::memory_order_relaxed)};
}

void ShardedPlanCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
  }
}

}  // namespace wsn
