// Size-or-deadline request batching for the shard frontend.
//
// One ABD round trip costs ~35-40 steps at n=3 (E19's finish_steps), so
// writing one replicated record per client session would cap a shard at
// a few sessions per delta.  The frontend instead coalesces admitted
// requests into batches and performs one replicated write (plus read-back)
// per batch, amortising the quorum cost across up to `max_batch` sessions.
//
// Flush policy is the classic size-or-deadline pair:
//   * size:     the pending batch reached `max_batch` — flush now, the
//               quorum write is fully amortised;
//   * deadline: the oldest pending request has waited `max_wait` ticks
//               since admission — flush a partial batch so light load
//               still sees bounded latency instead of waiting forever
//               for the batch to fill.
// The deadline anchors on the oldest pending request's *admission* time
// (not on when the frontend noticed it), so time a request spent queued
// behind a slow quorum write counts against its deadline.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tfr/service/queue.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::service {

struct BatchPolicy {
  std::size_t max_batch = 256;   ///< size flush threshold (requests)
  sim::Duration max_wait = 200;  ///< deadline flush threshold (ticks)
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy) : policy_(policy) {}

  /// Pulls requests from `queue` until the pending batch is full.
  void fill_from(BoundedQueue& queue) {
    if (pending_.size() >= policy_.max_batch) return;
    queue.pop_into(pending_, policy_.max_batch - pending_.size());
  }

  /// True when the pending batch must be flushed: full, or the oldest
  /// pending request has waited out the deadline.
  bool should_flush(sim::Time now) const {
    if (pending_.size() >= policy_.max_batch) return true;
    if (pending_.empty()) return false;
    return now - pending_.front().admitted >= policy_.max_wait;
  }

  /// Hands over the pending batch (classifying the flush as size- or
  /// deadline-triggered for the counters) and resets.
  std::vector<Request> take() {
    if (pending_.size() >= policy_.max_batch) {
      ++size_flushes_;
    } else {
      ++deadline_flushes_;
    }
    std::vector<Request> batch = std::move(pending_);
    pending_.clear();
    return batch;
  }

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Admission instant of the oldest pending request; -1 when empty.
  sim::Time oldest_admitted() const {
    return pending_.empty() ? -1 : pending_.front().admitted;
  }
  const BatchPolicy& policy() const { return policy_; }

  std::uint64_t size_flushes() const { return size_flushes_; }
  std::uint64_t deadline_flushes() const { return deadline_flushes_; }

 private:
  BatchPolicy policy_;
  std::vector<Request> pending_;
  std::uint64_t size_flushes_ = 0;
  std::uint64_t deadline_flushes_ = 0;
};

}  // namespace tfr::service
