// Algorithm 1 of the paper: binary consensus resilient to timing failures,
// using atomic registers only — simulator edition.  The round loop itself
// (lines 1-9) lives in core/round_loop.hpp; this class places its
// registers in a sim::RegisterSpace.
//
// Guarantees (Theorems 2.1–2.4): safety (validity, agreement) holds under
// arbitrary timing behaviour; without timing failures every process decides
// within 15·Δ; a process alone decides after 7 of its own steps with no
// delay statement; the algorithm is wait-free; the number of participants
// is unbounded.
//
// The instance's `delta` is the *assumed* bound the algorithm delays for;
// the simulation's TimingModel decides real step costs.  Real cost > delta
// is exactly a timing failure with respect to this instance.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/core/round_loop.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::core {

/// One instance of the time-resilient binary consensus object.
class SimConsensus : public RoundLoop {
 public:
  /// Registers are allocated inside `space`; `delta` is the bound used by
  /// the algorithm's delay statements (use a value smaller than the timing
  /// model's worst case to run with optimistic(Δ)).
  ///
  /// `max_rounds` realizes the paper's §2.1 remark: the unbounded register
  /// arrays are only needed because timing failures can last arbitrarily
  /// long; "such an algorithm [with finitely many registers] exists when
  /// there is a known bound on the number of time units during which there
  /// are timing failures."  A nonzero max_rounds preallocates exactly
  /// 3·max_rounds + 1 registers (F time units of failures cost at most
  /// ~F/Δ extra rounds, +2 for the failure-free tail); exceeding the bound
  /// is a contract violation — the environment broke its promise.
  SimConsensus(sim::RegisterSpace& space, sim::Duration delta,
               std::size_t max_rounds = 0);

  /// Composable core: propose `input` (0 or 1), suspend until decided,
  /// co_return the decision.  Usable as a building block from any process
  /// coroutine (the derived objects are built on this).  A non-faithful
  /// `V` runs an E13 ablation instead (experiments and negative tests
  /// only).
  template <AblationVariant V = AblationVariant::kFaithful>
  sim::Task<int> propose(sim::Env env, int input) {
    return run<V>(env, Registers{{}, this}, input);
  }

  /// Convenience: a full process that registers its input with the
  /// monitor, proposes, and reports its decision.
  template <AblationVariant V = AblationVariant::kFaithful>
  sim::Process participant(sim::Env env, int input) {
    const int decided = co_await propose<V>(env, input);
    monitor().on_decide(env.pid(), decided, env.now());
  }

  /// Number of per-round register triples allocated so far (x0, x1, y).
  std::size_t rounds_allocated() const { return y_.size(); }
  /// Untimed view of the decide register (kBot while undecided).
  int decided_value() const {
    return decide_.peek();  // untimed-ok: post-run observer view
  }

  // --- Transient memory-failure injection (paper §4 extension) ----------
  // Instantaneous register corruptions applied between simulation events;
  // cost no time and bypass the access model, exactly like a bit flip in
  // hardware.  E14 charts which classes Algorithm 1 tolerates.

  /// Clears the flag x[round, value] (a 1 -> 0 corruption).
  void fault_reset_flag(int value, std::size_t round);
  /// Spuriously raises the flag x[round, value] (0 -> 1).
  void fault_set_flag(int value, std::size_t round);
  /// Overwrites the round proposal y[round] with `v`.
  void fault_overwrite_proposal(std::size_t round, int v);
  /// Resets the decide register to ⊥.
  void fault_reset_decide();

 private:
  /// The round loop's register seam: cells of this instance's arrays.
  struct Registers : SimAccess {
    SimConsensus* self;
    sim::Register<int>& decide() const { return self->decide_; }
    sim::Register<int>& flag(std::size_t r, int v) const {
      return self->flag(v, r);
    }
    sim::Register<int>& proposal(std::size_t r) const {
      return self->y_.at(r);
    }
  };

  sim::Register<int>& flag(int value, std::size_t round);

  sim::RegisterArray<int> x0_;  ///< x[·, 0]
  sim::RegisterArray<int> x1_;  ///< x[·, 1]
  sim::RegisterArray<int> y_;   ///< y[·] over {⊥, 0, 1}
  sim::Register<int> decide_;   ///< {⊥, 0, 1}
};

/// Aggregate outcome of a scripted consensus run (tests and benches).
struct ConsensusOutcome {
  bool all_decided = false;
  int value = sim::kBot;
  sim::Time first_decision = -1;
  sim::Time last_decision = -1;
  std::vector<std::uint64_t> steps;       ///< shared accesses per process
  std::vector<std::uint64_t> delays;      ///< delay statements per process
  std::vector<std::size_t> decision_rounds;
  std::size_t max_round = 0;
  std::uint64_t registers_allocated = 0;
};

/// Spawns one participant per input, runs to completion (or `limit`), and
/// summarizes.  `algorithm_delta` is the bound the algorithm assumes.
/// When `sink` is given, the run emits structured trace events (accesses,
/// rounds, decisions); attach the sink to the timing model separately if
/// injected failures should appear too.
ConsensusOutcome run_consensus(const std::vector<int>& inputs,
                               sim::Duration algorithm_delta,
                               std::unique_ptr<sim::TimingModel> timing,
                               std::uint64_t seed = 1,
                               sim::Time limit = sim::kTimeNever,
                               obs::TraceSink* sink = nullptr);

/// E13: runs `variant` participants (the round loop with one design
/// element ablated, see core/round_loop.hpp) on the given timing and
/// reports safety and round statistics with violations *counted*, not
/// thrown.  For the experiment harness and negative tests only.
struct AblationOutcome {
  bool all_decided = false;
  std::uint64_t agreement_violations = 0;
  std::size_t max_round = 0;
};

AblationOutcome run_ablation(AblationVariant variant,
                             const std::vector<int>& inputs,
                             sim::Duration delta,
                             std::unique_ptr<sim::TimingModel> timing,
                             std::uint64_t seed, sim::Time limit);

}  // namespace tfr::core
