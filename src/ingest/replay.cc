#include "ingest/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace dismastd {
namespace ingest {

namespace {

/// Sentinel progress value of a finished producer.
inline constexpr uint64_t kProducerDone = ~0ull;

}  // namespace

OrderedReplay::OrderedReplay(const EventLogReader& log,
                             const ReplayOptions& options,
                             obs::MetricRegistry* metrics)
    : log_(log),
      options_(options),
      metrics_(metrics),
      depth_gauge_(metrics != nullptr
                       ? metrics->GetGauge(
                             "dismastd_ingest_queue_depth", {},
                             "Tokens queued between producers and consumer")
                       : nullptr),
      queue_(options.queue_capacity, options.backpressure),
      event_to_publish_nanos_(std::make_shared<obs::Pow2Histogram>()) {}

void OrderedReplay::Run(
    const std::function<void(const IngestToken&)>& consume) {
  const size_t num_producers = std::max<size_t>(1, options_.num_producers);
  const size_t num_slots = log_.num_slots();

  // Per-producer replay progress: the next slot the producer will attempt.
  // Updated with release after each Push so that once the consumer reads
  // (acquire) a progress value, every earlier slot of that shard is either
  // in the queue already or was shed by the queue itself — the consumer may
  // then process all buffered tokens below min(progress) in slot order.
  std::vector<std::atomic<uint64_t>> progress(num_producers);
  for (size_t p = 0; p < num_producers; ++p) progress[p].store(p);
  std::atomic<size_t> producers_active{num_producers};

  // Aggregate rate limit split evenly across producers.
  const double per_producer_rate =
      options_.max_events_per_second > 0.0
          ? options_.max_events_per_second /
                static_cast<double>(num_producers)
          : 0.0;

  std::vector<std::thread> producers;
  // Joins every producer on each way out of Run, including a throwing
  // `consume`: closing the queue first releases any producer still
  // blocked on a full queue.
  struct JoinOnExit {
    EventQueue& queue;
    std::vector<std::thread>& threads;
    ~JoinOnExit() {
      queue.Close();
      for (std::thread& t : threads) t.join();
    }
  } join_on_exit{queue_, producers};
  producers.reserve(num_producers);
  for (size_t p = 0; p < num_producers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t emitted = 0;
      // Round-robin sharding: producer p replays slots p, p+N, p+2N, ...
      // so all producers advance the low slot range together and the
      // consumer's merge frontier moves continuously.
      for (size_t slot = p; slot < num_slots; slot += num_producers) {
        if (per_producer_rate > 0.0) {
          const double target =
              static_cast<double>(emitted) / per_producer_rate;
          const double ahead = target - epoch_.ElapsedSeconds();
          if (ahead > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
          }
        }
        IngestToken token;
        token.slot = slot;
        token.kind = log_.Decode(slot, &token.record);
        token.enqueue_seconds = epoch_.ElapsedSeconds();
        queue_.Push(std::move(token));
        ++emitted;
        progress[p].store(slot + num_producers, std::memory_order_release);
      }
      progress[p].store(kProducerDone, std::memory_order_release);
      if (producers_active.fetch_sub(1) == 1) queue_.Close();
    });
  }

  // Merge-in-order: tokens buffered here until every slot below the safe
  // frontier has arrived (or provably never will), then delivered in log
  // order — the same discipline that makes WorkerExecutor results
  // independent of thread count.
  std::unordered_set<uint64_t> seen_seqs;
  auto deliver = [&](const IngestToken& token) {
    switch (token.kind) {
      case SlotKind::kQuarantined:
        ++quarantined_;
        return;
      case SlotKind::kBarrier:
        ++barriers_;
        break;
      case SlotKind::kEvent:
        ++events_;
        if (!seen_seqs.insert(token.record.seq).second) {
          ++duplicates_;
          return;
        }
        break;
    }
    consume(token);
  };

  std::map<uint64_t, IngestToken> reorder;
  std::vector<IngestToken> popped;
  bool open = true;
  while (open) {
    uint64_t safe = kProducerDone;
    for (size_t p = 0; p < num_producers; ++p) {
      safe = std::min(safe, progress[p].load(std::memory_order_acquire));
    }
    popped.clear();
    const size_t n = queue_.PopAll(&popped);
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<double>(queue_.depth()));
    }
    if (n == 0) {
      // Closed and drained: every surviving token is buffered; the whole
      // tail is safe to process.
      open = false;
      safe = kProducerDone;
    }
    for (IngestToken& token : popped) {
      reorder.emplace(token.slot, std::move(token));
    }
    while (!reorder.empty() && reorder.begin()->first < safe) {
      deliver(reorder.begin()->second);
      reorder.erase(reorder.begin());
    }
  }
}

void OrderedReplay::Published() {
  const double published = epoch_.ElapsedSeconds();
  for (double enqueued : pending_enqueue_) {
    const double latency = std::max(0.0, published - enqueued);
    event_to_publish_nanos_->Record(static_cast<uint64_t>(latency * 1e9));
  }
  pending_enqueue_.clear();
}

void OrderedReplay::Finish(uint64_t late_events, ReplayCensus* census) const {
  census->events = events_;
  census->barriers = barriers_;
  census->quarantined = quarantined_;
  census->duplicates = duplicates_;
  census->late_events = late_events;
  census->dropped_oldest = queue_.dropped_oldest_total();
  census->rejected = queue_.rejected_total();
  census->block_waits = queue_.block_waits_total();
  census->max_queue_depth = queue_.max_depth();
  census->event_to_publish_nanos = event_to_publish_nanos_;
  census->wall_seconds = epoch_.ElapsedSeconds();
  if (metrics_ == nullptr) return;

  const auto count = [&](const char* name, const char* help, uint64_t value) {
    metrics_->GetCounter(name, {}, help)->Add(value);
  };
  count("dismastd_ingest_events_total", "Event records the consumer saw",
        census->events);
  count("dismastd_ingest_barriers_total", "Barrier records the consumer saw",
        census->barriers);
  count("dismastd_ingest_quarantined_total",
        "Log slots quarantined (CRC mismatch / unknown kind)",
        census->quarantined);
  count("dismastd_ingest_duplicate_events_total",
        "Events dropped for an already-seen seq", census->duplicates);
  count("dismastd_ingest_late_events_total",
        "Events quarantined as older than the lateness bound",
        census->late_events);
  count("dismastd_ingest_dropped_oldest_total",
        "Tokens evicted by drop-oldest backpressure", census->dropped_oldest);
  count("dismastd_ingest_rejected_total",
        "Tokens refused by reject backpressure or after close",
        census->rejected);
  count("dismastd_ingest_block_waits_total",
        "Times a producer blocked waiting for queue space",
        census->block_waits);
  metrics_
      ->GetGauge("dismastd_ingest_queue_max_depth", {},
                 "High-water mark of the ingest queue depth")
      ->Set(static_cast<double>(census->max_queue_depth));
  metrics_
      ->GetHistogram("dismastd_ingest_event_to_publish_nanoseconds", {},
                     "Accepted-event enqueue to published-model latency")
      ->MergeFrom(*census->event_to_publish_nanos);
}

}  // namespace ingest
}  // namespace dismastd
