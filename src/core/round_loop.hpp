// Lines 1-7 of Algorithm 1, written once for every world whose processes
// are coroutines: simulated registers (core/consensus_sim.hpp),
// ABD-emulated registers over message passing (msg/consensus_msg.hpp) and
// the unknown-bound baseline (baseline/unknown_bound_sim.hpp).
//
// Round structure (per process p with preference v in round r):
//   1  while decide = ⊥ do
//   2     x[r, v] := 1
//   3     if y[r] = ⊥ then y[r] := v fi
//   4     if x[r, v̄] = 0 then decide := v
//   5     else delay(Δ)
//   6          v := y[r]
//   7          r := r + 1 fi
//   8  od
//   9  decide(decide)
//
// The algorithm uses nothing but atomic read/write registers, so the loop
// is a template over `Registers`, the seam that says where they live:
//
//   regs.decide(), regs.flag(r, v), regs.proposal(r)  name a cell;
//   regs.read(env, cell), regs.write(env, cell, v)     return the access
//                                                      as an awaitable;
//   regs.round_delay(r)  (optional) line 5's delay in round r, in place
//                        of Δ and of any controller — the baseline's
//                        estimate·2^r.
//
// Values cross the seam decoded (⊥ is sim::kBot, flags are 0/1).  The sim
// seam hands back the simulator's own timed awaiters, so the seam costs no
// coroutine frame and no allocation per access; the ABD seam hands back
// the AbdClient's operations.
//
// E13's ablations are compile-time variants of the same loop, so the
// experiment ablates the code that ships:
//
//   kYFirst  — swaps lines 2 and 3: publishes/reads the round proposal
//     y[r] BEFORE raising the flag x[r,v].  The flag-first order is what
//     guarantees that once a process decides v in round r, every process
//     carrying the conflicting preference must observe y[r] = v; with the
//     order swapped, a straggler whose y-write lands after the decision
//     poisons the next round and agreement fails under timing failures.
//
//   kNoDelay — removes line 5's delay(Δ).  Safety is unaffected (it never
//     depends on timing), but the delay is what forces every in-flight
//     y-write to land before preferences are re-read, so without it rounds
//     can keep splitting even in failure-free (legal) executions: the
//     15·Δ bound of Theorem 2.1 is lost.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/common/contracts.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::core {

/// Which Algorithm 1 the loop runs: the paper's, or one E13 ablation.
enum class AblationVariant { kFaithful, kYFirst, kNoDelay };

/// Register access in the simulator: a cell is a sim::Register and each
/// access is the simulator's timed awaiter itself.
struct SimAccess {
  template <class T>
  static auto read(sim::Env env, const sim::Register<T>& cell) {
    return env.read(cell);
  }
  template <class T>
  static auto write(sim::Env env, sim::Register<T>& cell,
                    std::type_identity_t<T> value) {
    return env.write(cell, std::move(value));
  }
};

/// One instance of Algorithm 1's bookkeeping, shared by every register
/// seam: the assumed bound, the optional adaptive controller, the round
/// statistics and the decision monitor.
class RoundLoop {
 public:
  /// `delta` is the bound line 5 delays for; a nonzero `max_rounds`
  /// bounds the rounds a run may enter (see SimConsensus).
  explicit RoundLoop(sim::Duration delta, std::size_t max_rounds = 0)
      : delta_(delta), max_rounds_(max_rounds) {
    TFR_REQUIRE(delta >= 1);
  }

  RoundLoop(const RoundLoop&) = delete;
  RoundLoop& operator=(const RoundLoop&) = delete;

  sim::DecisionMonitor& monitor() { return monitor_; }

  /// Attaches an adaptive optimistic(Δ) controller (null = the static
  /// `delta` from construction).  Line 5's delay then waits for
  /// controller->current(), a delay in round >= 1 is reported as a
  /// timing-failure signal (failure-free mixed-input instances need at
  /// most the round-0 delay), and an instance that decided with at most
  /// one delay reports clean.  Purely advisory: agreement and validity
  /// hold for ANY estimate (Theorem 2.1's proof never uses the bound).
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

  /// Highest round index any process has entered so far (0-based).
  std::size_t max_round() const { return max_round_; }

  /// Round in which `pid` decided; requires that it decided.
  std::size_t decision_round(sim::Pid pid) const {
    for (const auto& [p, r] : decision_rounds_) {
      if (p == pid) return r;
    }
    TFR_REQUIRE(!"process has not decided");
    return 0;
  }

 protected:
  /// The `delta` given at construction.
  sim::Duration delta() const { return delta_; }

  /// Proposes `input` (0 or 1) through `regs`; suspends until decided and
  /// co_returns the decision.
  template <AblationVariant V = AblationVariant::kFaithful, class Registers>
  sim::Task<int> run(sim::Env env, Registers regs, int input) {
    TFR_REQUIRE(input == 0 || input == 1);
    int v = input;
    std::size_t r = 0;
    std::uint64_t delays = 0;
    for (;;) {
      // Line 1: while decide = ⊥.  (Also the step that completes the fast
      // path: after line 4 wrote `decide`, this read observes it.)
      const int decided = co_await regs.read(env, regs.decide());
      if (decided != sim::kBot) {
        decision_rounds_.emplace_back(env.pid(), r);
        // Adaptive signal: a failure-free instance costs at most one delay
        // per process (round 0 resolves mixed inputs, round 1 decides), so
        // staying within that budget is a clean instance under the current
        // estimate.  Extra delays already reported on_failure() below.
        if (controller_ != nullptr && delays <= 1) controller_->on_clean();
        co_return decided;  // line 9: decide(decide)
      }
      // Bounded-register mode: the environment promised failures shorter
      // than what max_rounds covers; running out of rounds means it lied.
      TFR_REQUIRE(max_rounds_ == 0 || r < max_rounds_);
      max_round_ = std::max(max_round_, r);
      env.sim().emit({env.now(), env.pid(), obs::EventKind::kRound,
                      static_cast<std::int64_t>(r), 0, 0});
      if constexpr (V == AblationVariant::kYFirst) {
        // ABLATION: proposal before flag (lines 2 and 3 swapped).
        const int proposal = co_await regs.read(env, regs.proposal(r));
        if (proposal == sim::kBot)
          co_await regs.write(env, regs.proposal(r), v);
        co_await regs.write(env, regs.flag(r, v), 1);
      } else {
        // Line 2: flag our preference for round r.
        co_await regs.write(env, regs.flag(r, v), 1);
        // Line 3: publish v as the round's proposal if none is there yet.
        const int proposal = co_await regs.read(env, regs.proposal(r));
        if (proposal == sim::kBot)
          co_await regs.write(env, regs.proposal(r), v);
      }
      // Line 4: if nobody flagged the conflicting preference, decide.
      const int conflicting = co_await regs.read(env, regs.flag(r, 1 - v));
      if (conflicting == 0) {
        co_await regs.write(env, regs.decide(), v);
        // Loop back to line 1, which reads the decision (7 steps total on
        // the contention-free path, no delay executed).
      } else {
        // Lines 5-7: wait out the bound, adopt the round's proposal, retry.
        // With a controller the bound is the live estimate; a delay beyond
        // round 0 means the previous round's adoption failed to converge —
        // the instance-level symptom of a timing failure.
        if constexpr (V != AblationVariant::kNoDelay) {
          ++delays;
          if constexpr (requires { regs.round_delay(r); }) {
            co_await env.delay(regs.round_delay(r));
          } else if (controller_ != nullptr) {
            if (r >= 1) controller_->on_failure();
            co_await env.delay(controller_->current());
          } else {
            co_await env.delay(delta_);
          }
        }
        v = co_await regs.read(env, regs.proposal(r));
        // y[r] ≠ ⊥ here: we reached line 5 because x[r, v̄] = 1, and every
        // process writes y[r] (or saw it written) at line 3 before flagging
        // could be observed — in particular this process executed line 3.
        TFR_INVARIANT(v != sim::kBot);
        r += 1;
      }
    }
  }

 private:
  sim::Duration delta_;
  adapt::DeltaController* controller_ = nullptr;
  std::size_t max_rounds_;  ///< 0 = unbounded (the paper's default)
  sim::DecisionMonitor monitor_;
  std::size_t max_round_ = 0;
  std::vector<std::pair<sim::Pid, std::size_t>> decision_rounds_;
};

}  // namespace tfr::core
