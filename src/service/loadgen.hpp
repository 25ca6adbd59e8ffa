// Open-loop workload generator: millions of client sessions arriving at a
// configured rate, independent of how fast the service drains them.
//
// Closed-loop drivers (k coroutines looping request -> response) cannot
// saturate a service: offered load self-throttles to the service rate and
// overload never happens.  Production traffic is open-loop — users arrive
// whether or not the shard is keeping up — so the generator schedules
// arrivals purely from the configured rate and the clock.
//
// Scale trick: one session does NOT get one coroutine (a million
// coroutines would drown the event queue).  A single generator process
// wakes every `tick` ticks, materialises the arrivals that accumulated
// (fractional rates carry over), routes each session to its shard by a
// deterministic hash, and offers it to the shard's bounded queue.  A
// rejected session becomes a pending retry in a host-side min-heap, due
// after max(queue's retry-after hint, RetryPolicy backoff for that
// attempt) plus deterministic jitter — the client side of the
// reject/retry-after contract, and the mechanism by which overload turns
// into a measurable retry storm.  After `max_attempts` offers the session
// is shed (counted, never silently dropped).
//
// Amplification — offered pushes divided by sessions — is the storm
// metric: 1.0 when every session is admitted first try, bounded above by
// `max_attempts` by construction.

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "tfr/msg/abd.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/service/queue.hpp"
#include "tfr/sim/simulation.hpp"

namespace tfr::service {

struct LoadConfig {
  std::uint64_t sessions = 0;     ///< total client sessions to generate
  double arrivals_per_tick = 0.5; ///< offered rate (sessions per tick)
  sim::Duration tick = 50;        ///< generator wake period
  /// Client retry discipline on rejection: backoff/backoff_growth/
  /// max_backoff/jitter are used (the timeout fields govern ABD ack
  /// windows and are ignored here).
  msg::RetryPolicy retry;
  int max_attempts = 6;           ///< total offers per session before shed
  std::uint64_t route_seed = 1;   ///< session -> shard hash seed
};

/// The client's pause before re-offering `session` after its `attempt`-th
/// rejection (1-based): `backoff` grown by `backoff_growth` per earlier
/// attempt and capped at `max_backoff` (saturating, as ABD's retry
/// pauses, so any attempt count is defined), plus deterministic jitter in
/// [0, jitter] — a pure function of (session, attempt).
sim::Duration retry_backoff(const msg::RetryPolicy& policy,
                            std::uint64_t session, int attempt);

class LoadGen {
 public:
  /// `queues` holds one admission queue per shard (at least one);
  /// sessions are routed by hash(session) % queues.size().  Queues must
  /// outlive the generator.  Requires max_attempts >= 1.
  LoadGen(LoadConfig config, std::vector<BoundedQueue*> queues);

  /// The generator process.  Spawn with start = sim.now() once the shard
  /// leaders are elected.
  sim::Process run(sim::Env env);

  /// True once every session has been resolved at the generator: admitted
  /// to some queue, or shed.
  bool finished() const { return finished_; }

  std::uint64_t sessions_started() const { return started_; }
  std::uint64_t offered_pushes() const { return offered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t shed() const { return shed_; }
  std::size_t max_retry_heap() const { return max_retry_heap_; }

  /// Offered pushes per session — the retry-storm amplification factor.
  /// 1.0 = no storm; bounded above by max_attempts by construction.
  double amplification() const {
    return started_ == 0
               ? 0.0
               : static_cast<double>(offered_) / static_cast<double>(started_);
  }

 private:
  struct PendingRetry {
    sim::Time due = 0;
    Request request;
    int shard = 0;
    /// Min-heap by due time; session id breaks ties deterministically.
    friend bool operator>(const PendingRetry& x, const PendingRetry& y) {
      if (x.due != y.due) return x.due > y.due;
      return x.request.session > y.request.session;
    }
  };

  void offer(sim::Env& env, Request request, int shard);
  int route(std::uint64_t session) const;
  void emit_counters(sim::Env& env);

  LoadConfig cfg_;
  std::vector<BoundedQueue*> queues_;
  std::priority_queue<PendingRetry, std::vector<PendingRetry>,
                      std::greater<PendingRetry>>
      retries_;
  std::uint64_t started_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t max_retry_heap_ = 0;
  bool finished_ = false;
  std::uint32_t label_offered_ = 0;
  std::uint32_t label_rejected_ = 0;
  std::uint64_t last_emitted_offered_ = 0;
  std::uint64_t last_emitted_rejected_ = 0;
};

}  // namespace tfr::service
