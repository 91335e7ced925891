#ifndef DISMASTD_OBS_SEQLOCK_RING_H_
#define DISMASTD_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace dismastd {
namespace obs {

/// Lock-free bounded MPMC ring of the most recent `Capacity` values of a
/// trivially copyable T (the health monitor's alerts, the flight
/// recorder's frames). Writers claim a slot with one fetch_add; the value
/// is stored as atomic words guarded by a per-slot sequence stamp (odd =
/// write in progress, even = published), so concurrent Snapshot() readers
/// are race-free and drop slots that were overwritten mid-read. Pushing
/// never allocates. Capacity is a hard bound: old values are overwritten,
/// total() keeps the true count.
///
/// Ordering (Boehm, "Can seqlocks get along with programming language
/// memory models?", MSPC 2012): a reader that loads any word of a newer
/// write must see at least that write's odd stamp when it re-checks the
/// stamp, or a torn value passes both checks. A release store of the odd
/// stamp does not keep the later word stores behind it, and an acquire
/// re-check does not keep the earlier word loads ahead of it. So the words
/// are stored with release and loaded with acquire: the odd stamp is
/// sequenced before a word store that synchronizes with the word load
/// sequenced before the re-check. This is the per-word form of the usual
/// release fence after the odd stamp and acquire fence before the
/// re-check; GCC rejects std::atomic_thread_fence under -fsanitize=thread,
/// and TSan checks these accesses but does not model fences. On x86 either
/// form compiles to plain moves.
template <typename T, size_t Capacity>
class SeqlockRing {
  static_assert(std::is_trivially_copyable<T>::value,
                "SeqlockRing values cross the ring as raw words");

 public:
  static constexpr size_t kCapacity = Capacity;

  void Push(const T& value) {
    const uint64_t index = head_.fetch_add(1, std::memory_order_acq_rel);
    Slot& slot = slots_[index % kCapacity];
    slot.stamp.store(2 * index + 1, std::memory_order_relaxed);
    uint64_t words[kWords] = {0};
    std::memcpy(words, &value, sizeof(value));
    for (size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_release);
    }
    slot.stamp.store(2 * index + 2, std::memory_order_release);
  }

  uint64_t total() const { return head_.load(std::memory_order_acquire); }

  /// Copies the retained values, oldest first. Best effort under
  /// concurrent pushes: slots being overwritten are skipped.
  std::vector<T> Snapshot() const {
    const uint64_t head = total();
    const uint64_t retained = std::min<uint64_t>(head, kCapacity);
    std::vector<T> out;
    out.reserve(retained);
    for (uint64_t index = head - retained; index < head; ++index) {
      const Slot& slot = slots_[index % kCapacity];
      const uint64_t published = 2 * index + 2;
      if (slot.stamp.load(std::memory_order_acquire) != published) {
        continue;  // overwritten or mid-write; drop rather than tear
      }
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
      }
      if (slot.stamp.load(std::memory_order_relaxed) != published) continue;
      T value;
      std::memcpy(&value, words, sizeof(value));
      out.push_back(value);
    }
    return out;
  }

 private:
  static constexpr size_t kWords =
      (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  struct Slot {
    /// 2*index+1 while the writer owns the slot, 2*index+2 once published.
    std::atomic<uint64_t> stamp{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::array<Slot, kCapacity> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace obs
}  // namespace dismastd

#endif  // DISMASTD_OBS_SEQLOCK_RING_H_
