// Adaptive optimistic(Δ): the DeltaController seam and its policies.
//
// The paper (§1.2, §3.3) observes that the true bound Δ on shared-memory
// step time must account for preemption, cache misses and contention, and
// is therefore impractically large; because time-resilient algorithms stay
// safe when the bound is violated, they should run with a much smaller
// optimistic(Δ), adapted online "using a technique similar to the one used
// in TCP congestion control (slow start and additive-increase,
// multiplicative-decrease)".  This header turns that remark into a
// first-class component: everything that waits on a Δ today — the sim
// consensus/mutex delay(Δ) statements, the ABD client's retry windows, the
// rt locks' busy-wait delays — can be pointed at one DeltaController and
// share a single online estimate.
//
// The controller contract is deliberately advisory: current() is the
// estimate to wait for, on_failure()/on_clean() are performance signals,
// and NOTHING about safety may depend on any of them.  Algorithm 1 and
// Algorithm 3 keep agreement/mutual exclusion under arbitrary timing
// behaviour, ABD keeps linearizability under arbitrary message delay; a
// mistuned controller can only cost time.  tfr_mcheck's mistuned-controller
// scenario machine-verifies exactly that (estimate pinned at the floor
// while the explorer injects spikes past it).
//
// Policies:
//   Aimd                — the TCP-style estimator (the mapping inverts the
//                         knobs: the quantity we want high is speed ==
//                         1/estimate, so a suspected timing failure grows
//                         the estimate multiplicatively and sustained clean
//                         progress decays it additively to probe faster
//                         settings).  On relaxed atomics, so the sim and
//                         service policy may also be shared by rt threads.
//   TimelinessEstimator — per-channel step/RTT observations feeding a
//                         windowed quantile (timeliness-graph style, after
//                         Delporte-Gallet et al.): the estimate tracks what
//                         the environment actually delivers instead of
//                         reacting only to failures.
//   ManualDelta         — an externally pinned estimate: static baseline
//                         rows and oracle rows in benches, an operator
//                         override knob in a deployment.

#pragma once

#include <atomic>  // raw-atomic-ok: controller state is advisory (never safety-bearing)
#include <cstdint>
#include <map>
#include <vector>

#include "tfr/sim/types.hpp"

namespace tfr::adapt {

using sim::Duration;

/// The seam every Δ-consumer talks to.  Event counters live here so every
/// policy reports the same statistics surface; they are relaxed atomics so
/// one controller instance may be shared by real threads (Aimd).
class DeltaController {
 public:
  virtual ~DeltaController() = default;

  DeltaController() = default;
  DeltaController(const DeltaController&) = delete;
  DeltaController& operator=(const DeltaController&) = delete;

  /// The current optimistic(Δ) estimate — what delay(Δ) or a retry window
  /// should be derived from.  Always >= 1.
  virtual Duration current() const = 0;

  /// The per-channel optimistic(Δ) view: what a wait that only involves
  /// `channel` (one replica's ack, one peer's step) should be derived
  /// from.  Policies without per-channel state fall back to the global
  /// estimate, so consumers may call this unconditionally.  Advisory like
  /// current(): safety must never depend on it.
  virtual Duration estimate_for(int channel) const {
    (void)channel;
    return current();
  }

  /// Reports a suspected timing failure under the current estimate (a
  /// Fischer check failed, a consensus round retried, an ack window
  /// expired).  The signal means "we were too optimistic".
  void on_failure() {
    failure_events_.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
    handle_failure();
  }

  /// Reports a protocol instance that completed cleanly under the current
  /// estimate (first-try admission, a decide with no retry, a quorum
  /// inside the first window) — license to probe a faster setting.
  void on_clean() {
    clean_events_.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
    handle_clean();
  }

  /// Feeds a timeliness observation: `observed` is a measured step or
  /// round-trip duration on `channel` (a pid, a replica id, a shard id —
  /// any stable stream key).  Policies that do not estimate from
  /// observations ignore it.
  void observe(int channel, Duration observed) {
    observations_.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
    handle_observation(channel, observed);
  }

  std::uint64_t failure_events() const {
    return failure_events_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }
  std::uint64_t clean_events() const {
    return clean_events_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }
  std::uint64_t observations() const {
    return observations_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }

 protected:
  virtual void handle_failure() = 0;
  virtual void handle_clean() = 0;
  virtual void handle_observation(int channel, Duration observed) {
    (void)channel;
    (void)observed;
  }

 private:
  std::atomic<std::uint64_t> failure_events_{0};  // raw-atomic-ok: statistics
  std::atomic<std::uint64_t> clean_events_{0};    // raw-atomic-ok: statistics
  std::atomic<std::uint64_t> observations_{0};    // raw-atomic-ok: statistics
};

/// AIMD tuning knobs.
struct AimdConfig {
  Duration initial = 1;     ///< starting estimate (slow start from tiny)
  Duration floor = 1;       ///< never probe below this
  Duration ceiling = 1 << 20;  ///< cap (the pessimistic true Δ if known)
  double grow_factor = 2.0;    ///< multiplicative increase on failure
  Duration decay_step = 1;     ///< additive decrease after stable progress
  int clean_threshold = 8;     ///< clean instances required before decaying
};

/// The TCP-style estimator.  Its state is lock-free relaxed atomics, so one
/// instance may be shared by every thread contending an rt lock as well as
/// drive a single virtual clock (sim algorithms, the service frontend).
/// Single-threaded, each signal applies the AIMD rule exactly; concurrent
/// signals race only over which lands first, and every intermediate
/// estimate stays in [floor, ceiling] — races cost tuning accuracy, never
/// safety.
class Aimd final : public DeltaController {
 public:
  using Config = AimdConfig;

  explicit Aimd(Config config);

  Duration current() const override {
    return estimate_.load(std::memory_order_relaxed);  // mo-ok: advisory estimate
  }

  std::uint64_t grows() const {
    return grows_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }
  std::uint64_t decays() const {
    return decays_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }

 protected:
  void handle_failure() override;
  void handle_clean() override;

 private:
  Config config_;
  std::atomic<Duration> estimate_;       // raw-atomic-ok: advisory estimate
  std::atomic<int> clean_run_{0};        // raw-atomic-ok: advisory estimate
  std::atomic<std::uint64_t> grows_{0};  // raw-atomic-ok: statistics
  std::atomic<std::uint64_t> decays_{0};  // raw-atomic-ok: statistics
};

/// Timeliness-graph style estimation (after Delporte-Gallet et al.): keep
/// the last `window` observed durations per channel, estimate
/// headroom x the windowed quantile, maxed over channels.  A timing
/// failure additionally raises an AIMD-managed boost floor (observations
/// alone cannot see a delay the window has already forgotten), which clean
/// progress decays back so the observation-driven part takes over again.
/// Single-threaded.
class TimelinessEstimator final : public DeltaController {
 public:
  struct Config {
    Duration initial = 1;        ///< estimate before any observation
    Duration floor = 1;
    Duration ceiling = 1 << 20;
    std::size_t window = 64;     ///< samples kept per channel
    double quantile = 1.0;       ///< windowed quantile per channel (0, 1]
    double headroom = 2.0;       ///< safety margin over the quantile
    double grow_factor = 2.0;    ///< boost multiplier on failure
    Duration decay_step = 1;     ///< boost decay after stable progress
    int clean_threshold = 4;     ///< clean instances per decay step
    /// Caps the failure boost at boost_cap x the margined quantile once
    /// observations exist (0 = uncapped).  On lossy channels an expiry
    /// is often a lost message, not a slow one; uncapped, repeated
    /// expiries grow the boost multiplicatively into the ceiling while
    /// every *measured* round trip stays small.
    double boost_cap = 0.0;
  };

  explicit TimelinessEstimator(Config config);

  Duration current() const override { return estimate_; }

  /// The per-channel view: headroom x the channel's own windowed quantile
  /// (clamped to [floor, ceiling]).  A channel with no samples inherits
  /// the global estimate — cold channels start from the shared picture
  /// until they have a history of their own.  The failure boost stays
  /// global on purpose: an expiry cannot name a culprit peer, and
  /// stragglers teach their own channel through (late) observations.
  Duration estimate_for(int channel) const override;

  /// The windowed quantile of one channel (0 when it has no samples) — the
  /// per-edge weight a timeliness graph would carry.
  Duration channel_quantile(int channel) const;

  /// All (channel, windowed quantile) edges — the raw material a
  /// TimelinessGraph classifies.  Channels with no samples yet are
  /// skipped.
  std::vector<std::pair<int, Duration>> channel_quantiles() const;

  std::size_t channels() const { return channels_.size(); }
  Duration boost() const { return boost_; }

 protected:
  void handle_failure() override;
  void handle_clean() override;
  void handle_observation(int channel, Duration observed) override;

 private:
  struct Channel {
    std::vector<Duration> samples;  ///< ring buffer of the last N durations
    std::size_t next = 0;           ///< ring cursor
    Duration quantile = 0;          ///< cached windowed quantile
  };

  Duration clamped(Duration value) const;
  Duration quantile_of(const Channel& ring) const;
  void recompute();

  Config config_;
  std::map<int, Channel> channels_;
  Duration worst_ = 0;  ///< cached max of channel quantiles (an observation
                        ///< touches one channel; rescanning all of them
                        ///< would make estimation quadratic in channels)
  Duration boost_;      ///< failure-driven lower bound on the estimate
  Duration estimate_;   ///< cached: recomputed on every signal/observation
  int clean_run_ = 0;
};

/// An externally pinned estimate: no adaptation, signals only counted.
/// The static and oracle rows of E21, and the operator override a
/// deployment would keep next to the adaptive path.
class ManualDelta final : public DeltaController {
 public:
  explicit ManualDelta(Duration value);

  Duration current() const override { return value_; }

  /// Re-pins the estimate (the E21 oracle row tracks the drifting regime
  /// with this).  Must be >= 1.
  void set(Duration value);

 protected:
  void handle_failure() override {}
  void handle_clean() override {}

 private:
  Duration value_;
};

}  // namespace tfr::adapt
