#pragma once
// BoundedCache: a thread-safe memo bounded in bytes.
//
// Every cache a calibration epoch keeps (transpile templates, allocation
// states, fused programs, noisy executables) is one BoundedCache, and the
// epoch splits one byte budget (ServiceOptions::cache_budget_bytes)
// evenly across the four. Values are
// handed out as shared_ptr, so evicting an entry never frees a value a
// caller is still using. Each entry is charged the byte cost its inserter
// reports (the value's heap footprint estimate) plus a fixed per-entry
// overhead.
//
// Eviction is least-recently-used and per cache: a store that does not
// fit evicts the cache's own least recently used entries until it does.
// Because every cache owns a fixed share, one cache's one-use churn (the
// fused programs of a parameter sweep, say) can never evict, or crowd
// out, another cache's reused entries, and no lock is shared between
// caches. An entry larger than the whole capacity is returned to its
// caller but not stored, so a capacity of 0 stores nothing.
//
// Admission (TinyLFU's doorkeeper, Einziger et al., ACM ToS 2017): on a
// stream of mostly distinct programs most entries are never read again,
// and storing each one would evict an older entry that is as likely to be
// reused. So assign() of a new key that would have to evict stores it
// only if the key was offered before; a first sighting is returned to its
// caller unstored and counted in CacheStats::refused. The sightings live
// in a direct-mapped table of kDoorkeeperSlots mixed key hashes, guarded
// by the cache's mutex and allocated on the first store that would evict,
// so a cache that never fills pays nothing. A collision in that table can
// only admit a key early or forget a sighting; lookups compare full keys,
// so it never serves a wrong value. A store that fits, and a replacement
// of a resident key (a new binding, a stored outcome), is stored at once.
// insert() stores without admission: the allocation-state memo, whose
// keys recur by construction, keeps plain LRU.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qucp {

/// Caches a calibration epoch splits its budget across: transpile
/// templates, allocation states, fused programs and executables.
inline constexpr std::size_t kEpochCaches = 4;
/// Per-epoch cache budget when none is given (ServiceOptions, Backend,
/// BackendRegistry).
inline constexpr std::size_t kDefaultCacheBudgetBytes = std::size_t{8} << 20;
/// One cache's share of the default budget; also the capacity of a cache
/// built outside an epoch.
inline constexpr std::size_t kDefaultCacheBytes =
    kDefaultCacheBudgetBytes / kEpochCaches;

/// Heap bytes held by a vector's buffer.
template <class T>
[[nodiscard]] std::size_t heap_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

/// Counters of one BoundedCache.
struct CacheStats {
  std::size_t capacity = 0;  ///< bytes the cache may hold
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< charged by the resident entries
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// assign()s of a first-seen key served but not stored: keeping them
  /// would have evicted.
  std::uint64_t refused = 0;
};

template <class Key, class Value, class Hash = std::hash<Key>>
class BoundedCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// Sightings the doorkeeper holds, one per slot.
  static constexpr std::size_t kDoorkeeperSlots = 1024;

  explicit BoundedCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  BoundedCache(const BoundedCache&) = delete;
  BoundedCache& operator=(const BoundedCache&) = delete;

  /// The value under `key`, or null. Counts a hit or a miss; a hit makes
  /// the entry the most recently used.
  [[nodiscard]] Ptr find(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.end(), order_, it->second);
    return it->second->value;
  }

  /// find() without counting or touching recency.
  [[nodiscard]] Ptr peek(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->value;
  }

  /// Store `value` (costing `bytes`) unless `key` is already present.
  /// Returns the resident value: the existing one when a racing insert got
  /// there first, else `value` (stored or not).
  Ptr insert(const Key& key, Ptr value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      return it->second->value;
    }
    store(key, value, bytes);
    return value;
  }

  /// Store `value` under `key`, replacing any present value. A new key
  /// that would evict is stored only on its second offer (see the header
  /// comment). Returns whether `value` is now resident.
  bool assign(const Key& key, Ptr value, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      erase(it->second);
    } else if (const std::size_t cost = bytes + kEntryOverhead;
               cost <= capacity_ && bytes_ + cost > capacity_ &&
               !seen_before(key)) {
      ++refused_;
      return false;
    }
    return store(key, std::move(value), bytes);
  }

  [[nodiscard]] CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {capacity_, index_.size(), bytes_,
            hits_,     misses_,       evictions_, refused_};
  }

 private:
  struct Node {
    Key key;
    Ptr value;
    std::size_t bytes = 0;
  };
  using Order = std::list<Node>;
  /// Charged per entry beyond the value: its list node and index slot.
  static constexpr std::size_t kEntryOverhead =
      sizeof(Node) + sizeof(Key) + 6 * sizeof(void*);

  /// Whether `key` was offered before; records this offer. Caller holds
  /// mutex_.
  bool seen_before(const Key& key) {
    if (doorkeeper_.empty()) doorkeeper_.assign(kDoorkeeperSlots, 0);
    // splitmix64's finalizer: every bit of the key hash reaches the slot.
    std::uint64_t h = static_cast<std::uint64_t>(index_.hash_function()(key));
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    std::uint64_t& slot = doorkeeper_[h % kDoorkeeperSlots];
    if (slot == h) return true;
    slot = h;
    return false;
  }

  bool store(const Key& key, Ptr value, std::size_t bytes) {
    const std::size_t cost = bytes + kEntryOverhead;
    if (cost > capacity_) return false;
    while (bytes_ + cost > capacity_) {
      erase(order_.begin());
      ++evictions_;
    }
    order_.push_back({key, std::move(value), cost});
    index_.emplace(key, std::prev(order_.end()));
    bytes_ += cost;
    return true;
  }

  void erase(typename Order::iterator node) {
    bytes_ -= node->bytes;
    index_.erase(node->key);
    order_.erase(node);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  Order order_;  ///< least recently used first
  std::unordered_map<Key, typename Order::iterator, Hash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t refused_ = 0;
  /// Mixed hashes of refused keys, by slot; empty until the first store
  /// that would evict.
  std::vector<std::uint64_t> doorkeeper_;
};

}  // namespace qucp
