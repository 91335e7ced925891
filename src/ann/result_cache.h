#ifndef DISMASTD_ANN_RESULT_CACHE_H_
#define DISMASTD_ANN_RESULT_CACHE_H_

// Hot-entity result cache for the serving plane.
//
// Zipf-skewed query populations hit the same (target mode, anchor) pairs
// over and over; caching the finished top-K list turns a head query into a
// hash probe. Correctness hinges on never serving a result computed
// against a superseded model, so every entry is stamped with the model
// version AND factor fingerprint it was computed from — a lookup whose
// stamps do not match the caller's current snapshot is a stale miss and
// the entry is ignored (it will be overwritten by the fresh result's
// insert). No epoch/invalidation machinery: publishes do not touch the
// cache at all, staleness is detected entry-by-entry at read time.
//
// Layout is a direct-mapped, power-of-two slot array with one mutex per
// slot (the kv-cache idiom: collisions evict, no chaining, no global
// lock), so concurrent readers on different keys never contend and a
// hammered head key only serializes with itself.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace dismastd {
namespace ann {

/// Full identity of a cached top-K answer. Equality is exact over every
/// field — a hash collision can cost a miss, never a wrong answer.
struct ResultCacheKey {
  uint64_t version = 0;      // model store publish version
  uint64_t fingerprint = 0;  // factor content fingerprint
  uint32_t target_mode = 0;
  uint64_t k = 0;
  uint32_t precision = 0;    // serve::Precision enum value
  uint32_t search = 0;       // serve::SearchMode enum value
  uint64_t probes = 0;
  std::vector<uint64_t> anchor;

  bool SameModel(const ResultCacheKey& other) const {
    return version == other.version && fingerprint == other.fingerprint;
  }

  bool SameQuery(const ResultCacheKey& other) const {
    return target_mode == other.target_mode && k == other.k &&
           precision == other.precision && search == other.search &&
           probes == other.probes && anchor == other.anchor;
  }

  bool operator==(const ResultCacheKey& other) const {
    return SameModel(other) && SameQuery(other);
  }

  /// FNV-1a over the query identity only (not the model stamps), so a hot
  /// anchor stays in the same slot across publishes and a fresh result
  /// naturally overwrites its stale predecessor.
  uint64_t QueryHash() const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    mix(target_mode);
    mix(k);
    mix(precision);
    mix(search);
    mix(probes);
    for (uint64_t a : anchor) mix(a);
    return h;
  }
};

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;        // empty slot or different query in the slot
  uint64_t stale_misses = 0;  // same query, superseded version/fingerprint
  uint64_t inserts = 0;
};

/// Value is the cached answer type (serve::TopKResult in production; any
/// copyable type in tests). The cache templates over it so this layer
/// needs no dependency on the serve library that sits above it.
template <typename Value>
class ResultCache {
 public:
  /// `capacity` is rounded up to a power of two (minimum 1 slot).
  explicit ResultCache(size_t capacity) {
    size_t slots = 1;
    while (slots < capacity) slots <<= 1;
    slots_ = std::vector<Slot>(slots);
  }

  size_t num_slots() const { return slots_.size(); }

  /// True plus `*out` when the slot holds exactly `key` (model stamps
  /// included). A same-query entry from another model version counts as a
  /// stale miss and is never returned.
  bool Lookup(const ResultCacheKey& key, Value* out) {
    Slot& slot = SlotFor(key);
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.full || !slot.key.SameQuery(key)) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!slot.key.SameModel(key)) {
      stale_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *out = slot.value;
    return true;
  }

  /// Unconditionally installs `value`, evicting whatever occupied the slot.
  void Insert(const ResultCacheKey& key, Value value) {
    Slot& slot = SlotFor(key);
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.full = true;
    slot.key = key;
    slot.value = std::move(value);
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }

  ResultCacheStats Stats() const {
    ResultCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stale_misses = stale_misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Slot {
    std::mutex mu;
    bool full = false;
    ResultCacheKey key;
    Value value;
  };

  Slot& SlotFor(const ResultCacheKey& key) {
    return slots_[key.QueryHash() & (slots_.size() - 1)];
  }

  std::vector<Slot> slots_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_misses_{0};
  std::atomic<uint64_t> inserts_{0};
};

}  // namespace ann
}  // namespace dismastd

#endif  // DISMASTD_ANN_RESULT_CACHE_H_
