#ifndef DISMASTD_SERVE_MODEL_STORE_H_
#define DISMASTD_SERVE_MODEL_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "serve/servable_model.h"
#include "tensor/checkpoint.h"

namespace dismastd {

namespace obs {
class MetricRegistry;
}  // namespace obs

namespace serve {

struct ModelStoreOptions {
  /// How many most-recent versions (including the current one) the store
  /// keeps alive for Version() lookups. Older versions are retired — their
  /// memory is released once the last in-flight query drops its reference.
  /// Must be >= 1.
  size_t keep_depth = 4;

  /// How every publish hashes the LSH index of its ANN top-K (forwarded
  /// to ServableModel::Build).
  ServableBuildOptions servable;
};

/// Versioned store of published CP models (RCU-style swap).
///
/// One publisher (the streaming driver) and any number of concurrent
/// readers (query threads). Readers copy the head pointer under a shared
/// lock held only for the refcount bump — all heavy publish work
/// (Build() precomputes Grams, norms and the content fingerprint)
/// happens before the exclusive swap, so a slow publish cannot stall
/// queries and readers never contend with each other. A reader either
/// sees the old model or the new one, complete in both cases; shared
/// ownership keeps a retired version alive until the last query using it
/// finishes.
///
/// Why not `std::atomic<std::shared_ptr>`: libstdc++'s locked
/// implementation releases its internal spinlock in load() with a
/// relaxed RMW, which leaves no formal happens-before edge between a
/// reader's pointer copy and the next publisher's swap — ThreadSanitizer
/// (correctly, per the C++ memory model) reports it. The shared_mutex
/// fast path costs one uncontended atomic RMW, same order of magnitude,
/// and the synchronization is machine-checkable by the TSan gate.
///
/// Publishing is serialized on the same lock held exclusively (version
/// assignment and the retained ring are publisher-side state), so
/// concurrent publishers are safe too, just ordered.
class ModelStore {
 public:
  explicit ModelStore(ModelStoreOptions options = {});

  /// The latest fully-published model, or nullptr before the first
  /// Publish(). Blocks only for the duration of a pointer copy while a
  /// publisher swaps the head. The returned snapshot stays valid for as
  /// long as the caller holds the pointer, regardless of later publishes.
  std::shared_ptr<const ServableModel> Current() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return current_;
  }

  /// Builds a ServableModel from `factors` (stamped with streaming step
  /// `step`), assigns the next version number and atomically swaps it in.
  /// Returns the assigned version (1, 2, 3, ...).
  uint64_t Publish(KruskalTensor factors, uint64_t step);

  /// Publishes the factors of a streaming checkpoint — warm start after a
  /// process restart, before the driver produces its first step. Fails on
  /// a checkpoint whose dims disagree with its factor shapes.
  Result<uint64_t> WarmStart(const StreamCheckpoint& checkpoint);

  /// Looks up a retained version; nullptr if never published or already
  /// retired past keep_depth.
  std::shared_ptr<const ServableModel> Version(uint64_t version) const;

  /// Versions currently retained, oldest first.
  std::vector<uint64_t> RetainedVersions() const;

  /// Total number of Publish()/WarmStart() calls so far.
  uint64_t num_published() const {
    return num_published_.load(std::memory_order_relaxed);
  }

  size_t keep_depth() const { return options_.keep_depth; }

  /// Registers the store's state into the shared registry: the cumulative
  /// publish counter and a gauge of how many versions are currently
  /// retained (both visible through --metrics-out).
  void PublishTo(obs::MetricRegistry* registry) const;

 private:
  uint64_t PublishModel(KruskalTensor factors, uint64_t step);

  ModelStoreOptions options_;
  std::atomic<uint64_t> num_published_{0};

  /// Publishes already exported through PublishTo(): registry counters are
  /// additive, so each export contributes only the delta since the last.
  mutable std::atomic<uint64_t> published_exported_{0};

  /// Serializes publishers and guards next_version_; never held while a
  /// reader waits. Build() runs under this lock but outside mutex_.
  std::mutex publish_mutex_;
  uint64_t next_version_ = 1;

  /// Guards current_ and retained_. Readers take it shared (pointer copy
  /// only); publishers take it exclusive just for the swap.
  mutable std::shared_mutex mutex_;
  std::shared_ptr<const ServableModel> current_;
  std::deque<std::shared_ptr<const ServableModel>> retained_;
};

}  // namespace serve
}  // namespace dismastd

#endif  // DISMASTD_SERVE_MODEL_STORE_H_
