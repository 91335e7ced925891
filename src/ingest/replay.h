#ifndef DISMASTD_INGEST_REPLAY_H_
#define DISMASTD_INGEST_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "ingest/event_log.h"
#include "ingest/event_queue.h"
#include "obs/histogram.h"

namespace dismastd {

namespace obs {
class Gauge;
class MetricRegistry;
}  // namespace obs

namespace ingest {

/// How a log is replayed into the consumer; the base of both ingest
/// policies' options (IngestSessionOptions, ContinuousSessionOptions).
struct ReplayOptions {
  /// Producer (replay) threads sharding the log round-robin by slot.
  size_t num_producers = 1;
  /// Bounded queue between producers and the consumer.
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Aggregate replay rate across all producers; 0 = unthrottled.
  double max_events_per_second = 0.0;
};

/// Consumer-side census of one replay; the base of both ingest policies'
/// results (IngestSessionResult, ContinuousSessionResult).
struct ReplayCensus {
  uint64_t events = 0;
  uint64_t barriers = 0;
  uint64_t quarantined = 0;
  /// Events dropped for a seq already seen (at-least-once retransmission).
  uint64_t duplicates = 0;
  /// Events quarantined as older than watermark - allowed_lateness (the
  /// policy applies the bound; the replay only carries the count).
  uint64_t late_events = 0;

  /// Queue-side accounting (see EventQueue).
  uint64_t dropped_oldest = 0;
  uint64_t rejected = 0;
  uint64_t block_waits = 0;
  size_t max_queue_depth = 0;

  /// End-to-end freshness: enqueue of an accepted event -> the model that
  /// folded it in was published (observer returned). Nanoseconds. Always
  /// non-null on a successful run (heap-held: the histogram's atomics make
  /// it non-copyable, the result struct must not be).
  std::shared_ptr<obs::Pow2Histogram> event_to_publish_nanos;

  double wall_seconds = 0.0;
};

/// The ordered-replay engine both ingest policies run on. N producer
/// threads decode disjoint round-robin slot shards of the log (optionally
/// rate-paced) and push tokens into one bounded EventQueue; the calling
/// thread reassembles log order behind a safe frontier, counts quarantined
/// slots, drops already-seen seqs, and hands every barrier and first-seen
/// event to the consumer in slot order. With BackpressurePolicy::kBlock the
/// delivered sequence is therefore the same for every producer count.
///
/// The engine also keeps the freshness clock — Accept() starts an accepted
/// event's clock, Published() stops every pending one — and exports the
/// metric families both policies share.
class OrderedReplay {
 public:
  /// `metrics` may be null. The session's wall epoch starts here.
  OrderedReplay(const EventLogReader& log, const ReplayOptions& options,
                obs::MetricRegistry* metrics);

  OrderedReplay(const OrderedReplay&) = delete;
  OrderedReplay& operator=(const OrderedReplay&) = delete;

  /// Replays the whole log, calling `consume` on this thread for each
  /// delivered token in log order; returns once every producer has joined.
  void Run(const std::function<void(const IngestToken&)>& consume);

  /// The event enqueued at `enqueue_seconds` was accepted into the model.
  void Accept(double enqueue_seconds) {
    pending_enqueue_.push_back(enqueue_seconds);
  }
  /// A model folding in every accepted event was just published: records
  /// each pending event's enqueue->publish latency.
  void Published();

  /// Tokens queued between the producers and the consumer right now.
  size_t queue_depth() const { return queue_.depth(); }
  /// Seconds on the session's wall epoch.
  double ElapsedSeconds() const { return epoch_.ElapsedSeconds(); }

  /// Writes the census (with the policy's `late_events`), the queue
  /// accounting and the wall time into `*census`, and adds the shared
  /// `dismastd_ingest_*` families to the registry. Call once, after the
  /// policy's last publish.
  void Finish(uint64_t late_events, ReplayCensus* census) const;

 private:
  const EventLogReader& log_;
  const ReplayOptions options_;
  obs::MetricRegistry* const metrics_;
  obs::Gauge* const depth_gauge_;
  const WallTimer epoch_;
  EventQueue queue_;

  uint64_t events_ = 0;
  uint64_t barriers_ = 0;
  uint64_t quarantined_ = 0;
  uint64_t duplicates_ = 0;
  /// Enqueue times of accepted events not yet folded into a published model.
  std::vector<double> pending_enqueue_;
  std::shared_ptr<obs::Pow2Histogram> event_to_publish_nanos_;
};

}  // namespace ingest
}  // namespace dismastd

#endif  // DISMASTD_INGEST_REPLAY_H_
