#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/assert.h"
#include "store/fingerprint.h"

/// Keyed mutual exclusion for compile coalescing.
///
/// Without it, workers racing one cold key would each compile the same
/// plan -- a core per duplicate in a sweep, and in a service a load spike
/// of identical cold requests would burn cores while the admission queue
/// backs up.  PlanStore takes the key's lock only after a memory-tier
/// miss: the first requester compiles, the rest block briefly and then
/// find the plan in memory, so the store's `compiles` counter moves by
/// exactly one per distinct key no matter how many callers race it.
///
/// Entries are created on first lock and dropped when the last holder
/// releases, so the map stays proportional to *in-flight* keys, not to
/// every key ever seen.
namespace wsn {

class KeyedMutex {
  struct Entry {
    std::mutex lock;
    std::size_t refs = 0;
  };

 public:
  /// Holds the per-key lock for its lifetime; move-only.
  class Guard {
   public:
    Guard(Guard&& other) noexcept
        : owner_(other.owner_), entry_(other.entry_), key_(other.key_) {
      other.owner_ = nullptr;
      other.entry_ = nullptr;
    }
    Guard& operator=(Guard&&) = delete;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

   private:
    friend class KeyedMutex;
    Guard(KeyedMutex* owner, Entry* entry, const PlanKey& key)
        : owner_(owner), entry_(entry), key_(key) {}

    void release() noexcept {
      if (owner_ == nullptr) return;
      entry_->lock.unlock();
      {
        const std::lock_guard<std::mutex> map_lock(owner_->mutex_);
        const auto it = owner_->entries_.find(key_);
        WSN_ASSERT(it != owner_->entries_.end());
        if (--it->second->refs == 0) owner_->entries_.erase(it);
      }
      owner_ = nullptr;
      entry_ = nullptr;
    }

    KeyedMutex* owner_;
    Entry* entry_;
    PlanKey key_;
  };

  /// Blocks until `key`'s lock is free, then holds it until the Guard
  /// dies.  Different keys never contend (beyond the map lookup).
  [[nodiscard]] Guard lock(const PlanKey& key) {
    Entry* entry = nullptr;
    {
      const std::lock_guard<std::mutex> map_lock(mutex_);
      std::unique_ptr<Entry>& slot = entries_[key];
      if (!slot) slot = std::make_unique<Entry>();
      slot->refs++;
      entry = slot.get();
    }
    // Entry stays alive while refs > 0, so locking outside the map lock
    // is safe -- and required, or a long compile would serialize every
    // other key behind it.
    entry->lock.lock();
    return Guard(this, entry, key);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<PlanKey, std::unique_ptr<Entry>, PlanKeyHash> entries_;
};

}  // namespace wsn
