#include "ingest/event_queue.h"

#include <algorithm>

#include "common/string_util.h"

namespace dismastd {
namespace ingest {

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
    case BackpressurePolicy::kReject:
      return "reject";
  }
  return "?";
}

Result<BackpressurePolicy> ParseBackpressurePolicy(const std::string& text) {
  static constexpr EnumToken<BackpressurePolicy> kTokens[] = {
      {"block", BackpressurePolicy::kBlock},
      {"drop-oldest", BackpressurePolicy::kDropOldest},
      {"dropoldest", BackpressurePolicy::kDropOldest},
      {"drop", BackpressurePolicy::kDropOldest},
      {"reject", BackpressurePolicy::kReject}};
  return ParseEnumToken<BackpressurePolicy>(text, "backpressure policy",
                                            kTokens);
}

EventQueue::EventQueue(size_t capacity, BackpressurePolicy policy)
    : capacity_(std::max<size_t>(1, capacity)), policy_(policy) {}

bool EventQueue::Push(IngestToken token) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (items_.size() >= capacity_) {
    switch (policy_) {
      case BackpressurePolicy::kBlock:
        block_waits_.fetch_add(1, std::memory_order_relaxed);
        not_full_.wait(lock, [&] {
          return items_.size() < capacity_ || closed_;
        });
        if (closed_) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        break;
      case BackpressurePolicy::kDropOldest:
        items_.pop_front();
        dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
        break;
      case BackpressurePolicy::kReject:
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  }
  items_.push_back(std::move(token));
  const size_t depth = items_.size();
  depth_.store(depth, std::memory_order_relaxed);
  size_t max_depth = max_depth_.load(std::memory_order_relaxed);
  while (depth > max_depth &&
         !max_depth_.compare_exchange_weak(max_depth, depth,
                                           std::memory_order_relaxed)) {
  }
  pushed_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

size_t EventQueue::PopAll(std::vector<IngestToken>* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
  const size_t popped = items_.size();
  out->reserve(out->size() + popped);
  for (auto& item : items_) out->push_back(std::move(item));
  items_.clear();
  depth_.store(0, std::memory_order_relaxed);
  lock.unlock();
  // Every blocked producer can make progress now, not just one.
  not_full_.notify_all();
  return popped;
}

void EventQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool EventQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace ingest
}  // namespace dismastd
