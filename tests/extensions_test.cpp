// Tests for the §4-extension modules: ablation variants of Algorithm 1,
// transient memory-failure hooks and RMR accounting.  k-set consensus and
// the long-lived test-and-set are tested with the other derived objects
// (derived_test.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr {
namespace {

using core::AblationVariant;
using sim::Duration;
using sim::make_fixed_timing;
using sim::make_uniform_timing;

constexpr Duration kDelta = 100;

std::unique_ptr<sim::TimingModel> faulty(double p) {
  auto injector = std::make_unique<sim::FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(p, 10 * kDelta);
  return injector;
}

// --- Ablation variants --------------------------------------------------------

TEST(Ablation, FaithfulNeverViolatesAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto out =
        core::run_ablation(AblationVariant::kFaithful, {0, 1, 0, 1}, kDelta,
                           faulty(0.15), seed, 10'000'000);
    EXPECT_EQ(out.agreement_violations, 0u) << "seed=" << seed;
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
  }
}

TEST(Ablation, YFirstVariantEventuallyViolates) {
  std::uint64_t violations = 0;
  for (std::uint64_t seed = 0; seed < 400 && violations == 0; ++seed) {
    const auto out =
        core::run_ablation(AblationVariant::kYFirst, {0, 1, 0, 1}, kDelta,
                           faulty(0.15), seed, 10'000'000);
    violations += out.agreement_violations;
  }
  EXPECT_GT(violations, 0u)
      << "the y-first reordering should lose agreement under failures";
}

TEST(Ablation, YFirstVariantSafeWithoutFailures) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto out =
        core::run_ablation(AblationVariant::kYFirst, {0, 1, 0, 1}, kDelta,
                           make_uniform_timing(1, kDelta), seed, 10'000'000);
    EXPECT_EQ(out.agreement_violations, 0u) << "seed=" << seed;
  }
}

TEST(Ablation, NoDelayVariantSafeButSlower) {
  std::size_t worst_rounds = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto out =
        core::run_ablation(AblationVariant::kNoDelay, {0, 1, 0, 1}, kDelta,
                           make_uniform_timing(1, kDelta), seed, 10'000'000);
    EXPECT_EQ(out.agreement_violations, 0u) << "seed=" << seed;
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
    worst_rounds = std::max(worst_rounds, out.max_round + 1);
  }
  // Without the delay the two-round guarantee is gone.
  EXPECT_GT(worst_rounds, 2u);
}

// --- Memory-failure hooks -------------------------------------------------------

TEST(MemoryFaults, ToleratedClassesKeepAgreement) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    sim::Simulation s(faulty(0.1), {.seed = seed});
    core::SimConsensus consensus(s.space(), kDelta);
    consensus.monitor().throw_on_violation(false);
    const std::vector<int> inputs{0, 1, 0, 1};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
      s.spawn([&consensus, input = inputs[i]](sim::Env env) {
        return consensus.participant(env, input);
      });
    }
    s.run(4 * kDelta);
    // Tolerated classes: spurious flag set + decide reset.
    consensus.fault_set_flag(static_cast<int>(seed % 2), consensus.max_round());
    s.run(8 * kDelta);
    consensus.fault_reset_decide();
    s.run(10'000'000);
    EXPECT_EQ(consensus.monitor().agreement_violations(), 0u)
        << "seed=" << seed;
    EXPECT_TRUE(consensus.monitor().all_decided(inputs.size()))
        << "seed=" << seed;
  }
}

TEST(MemoryFaults, FlagResetCanBreakAgreement) {
  std::uint64_t violations = 0;
  for (std::uint64_t seed = 0; seed < 400 && violations == 0; ++seed) {
    sim::Simulation s(faulty(0.15), {.seed = seed});
    core::SimConsensus consensus(s.space(), kDelta);
    consensus.monitor().throw_on_violation(false);
    const std::vector<int> inputs{0, 1, 0, 1};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
      s.spawn([&consensus, input = inputs[i]](sim::Env env) {
        return consensus.participant(env, input);
      });
    }
    s.run(static_cast<sim::Time>(2 + seed % 6) * kDelta);
    consensus.fault_reset_flag(static_cast<int>(seed % 2),
                               consensus.max_round());
    s.run(10'000'000);
    violations += consensus.monitor().agreement_violations();
  }
  EXPECT_GT(violations, 0u);
}

// --- RMR accounting ---------------------------------------------------------------

struct RmrShared {
  sim::Register<int> flag;
  explicit RmrShared(sim::RegisterSpace& sp) : flag(sp, 0) {}
};

sim::Process spinner(sim::Env env, RmrShared& sh) {
  for (;;) {  // spin until the flag is raised
    const int f = co_await env.read(sh.flag);
    if (f != 0) break;
  }
}

sim::Process raiser(sim::Env env, RmrShared& sh, Duration after) {
  co_await env.delay(after);
  co_await env.write(sh.flag, 1);
}

TEST(Rmr, SpinningOnUnchangedRegisterIsLocal) {
  sim::Simulation s(make_fixed_timing(10));
  RmrShared sh(s.space());
  s.spawn([&sh](sim::Env env) { return spinner(env, sh); });
  s.spawn([&sh](sim::Env env) { return raiser(env, sh, 1000); });
  s.run();
  const auto& spin_stats = s.stats(0);
  // ~100 spin reads, but only two remote: the first (cache fill) and the
  // one after the raiser's write invalidated the copy.
  EXPECT_GT(spin_stats.reads, 50u);
  EXPECT_EQ(spin_stats.rmr, 2u);
  EXPECT_EQ(s.stats(1).rmr, 1u);  // the write
}

sim::Process write_read_write(sim::Env env, RmrShared& sh) {
  co_await env.write(sh.flag, 1);
  const int a = co_await env.read(sh.flag);  // local: own copy valid
  (void)a;
  co_await env.write(sh.flag, 2);
}

TEST(Rmr, WriterRetainsItsOwnCopy) {
  sim::Simulation s(make_fixed_timing(10));
  RmrShared sh(s.space());
  s.spawn([&sh](sim::Env env) { return write_read_write(env, sh); });
  s.run();
  EXPECT_EQ(s.stats(0).rmr, 2u);  // two writes; the read was local
}

// --- Whole-workload determinism (replayability) -----------------------------------

std::uint64_t mutex_workload_trace_hash(std::uint64_t seed) {
  auto injector = std::make_unique<sim::FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.1, 8 * kDelta);
  obs::TraceSink sink;
  const auto result = mutex::run_mutex_workload(
      [] { return mutex::make_shim_lock("tfr(sf)", 3, kDelta); },
      mutex::WorkloadConfig{.processes = 3,
                            .sessions = 8,
                            .cs_time = 30,
                            .ncs_time = 40,
                            .randomize_ncs = true},
      std::move(injector), seed, 1'000'000'000, &sink);
  EXPECT_TRUE(result.completed);
  return sink.hash();
}

TEST(Determinism, FullMutexWorkloadReplaysBitIdentically) {
  // Everything — scheduler, failure injection, workload randomness — is
  // derived from the seed, so an entire contended run under failures
  // replays to the same linearization trace.
  EXPECT_EQ(mutex_workload_trace_hash(11), mutex_workload_trace_hash(11));
  EXPECT_NE(mutex_workload_trace_hash(11), mutex_workload_trace_hash(12));
}

// --- Quantum scheduling (scheduling failures, §4) --------------------------------

TEST(QuantumScheduling, OwnerStepsAreCheapOthersWait) {
  sim::QuantumTiming timing(/*n=*/3, /*quantum=*/30, /*step=*/2);
  Rng rng(1);
  // At t=5, slot 0 belongs to pid 0.
  EXPECT_EQ(timing.access_cost(0, 5, rng), 2);
  // pid 1 must wait for its slot [30, 60).
  EXPECT_EQ(timing.access_cost(1, 5, rng), 25 + 2);
  // pid 2 waits for [60, 90).
  EXPECT_EQ(timing.access_cost(2, 5, rng), 55 + 2);
  // An owner too close to its quantum end defers to its next slot.
  EXPECT_EQ(timing.access_cost(0, 29, rng), (90 - 29) + 2);
  EXPECT_EQ(timing.delta_equivalent(), 90);
}

TEST(QuantumScheduling, ConfiscationPostponesVictim) {
  sim::QuantumTiming timing(2, 10, 1);
  timing.confiscate(0, 0, 40);  // pid 0 loses quanta starting in [0, 40)
  Rng rng(1);
  // pid 0's quanta start at 0, 20, 40...; the first usable one starts 40.
  EXPECT_EQ(timing.access_cost(0, 0, rng), 40 + 1);
  // pid 1 is unaffected (its quantum [10, 20)).
  EXPECT_EQ(timing.access_cost(1, 0, rng), 10 + 1);
  EXPECT_GE(timing.postponements(), 1u);
}

TEST(QuantumScheduling, ConsensusDecidesUnderQuantumScheduling) {
  for (const sim::Duration quantum : {8, 32}) {
    auto timing = std::make_unique<sim::QuantumTiming>(4, quantum, 1);
    const sim::Duration delta_q = timing->delta_equivalent();
    const auto out = core::run_consensus({0, 1, 0, 1}, delta_q,
                                         std::move(timing), 1, 100'000'000);
    EXPECT_TRUE(out.all_decided) << "quantum=" << quantum;
    EXPECT_LE(out.last_decision, 15 * delta_q) << "quantum=" << quantum;
  }
}

TEST(QuantumScheduling, SafeAcrossConfiscationBurst) {
  auto timing = std::make_unique<sim::QuantumTiming>(3, 16, 1);
  const sim::Duration delta_q = timing->delta_equivalent();
  timing->confiscate(1, 0, 20 * delta_q);
  const auto out = core::run_consensus({0, 1, 1}, delta_q, std::move(timing),
                                       2, 1'000'000'000);
  EXPECT_TRUE(out.all_decided);
}

// --- Bounded-register mode (§2.1 remark) ------------------------------------------

TEST(BoundedRounds, PreallocatesExactlyItsRegisters) {
  sim::RegisterSpace space;
  core::SimConsensus consensus(space, 100, /*max_rounds=*/6);
  EXPECT_EQ(space.allocated(), 3 * 6 + 1u);
}

TEST(BoundedRounds, SufficientBoundBehavesIdentically) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    core::SimConsensus consensus(s.space(), kDelta, /*max_rounds=*/4);
    for (int i = 0; i < 4; ++i) {
      consensus.monitor().set_input(i, i % 2);
      s.spawn([&consensus, input = i % 2](sim::Env env) {
        return consensus.participant(env, input);
      });
    }
    s.run(10'000'000);
    EXPECT_TRUE(consensus.monitor().all_decided(4)) << "seed=" << seed;
  }
}

TEST(BoundedRounds, ViolatedPromiseTripsTheContract) {
  // Failures last far longer than a 1-round budget covers: the algorithm
  // must refuse to silently run out of (finitely many) registers.
  bool tripped = false;
  for (std::uint64_t seed = 0; seed < 40 && !tripped; ++seed) {
    auto injector = std::make_unique<sim::FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->set_random_failures(0.4, 20 * kDelta);
    sim::Simulation s(std::move(injector), {.seed = seed});
    core::SimConsensus consensus(s.space(), kDelta, /*max_rounds=*/1);
    for (int i = 0; i < 4; ++i) {
      consensus.monitor().set_input(i, i % 2);
      s.spawn([&consensus, input = i % 2](sim::Env env) {
        return consensus.participant(env, input);
      });
    }
    try {
      s.run(10'000'000);
    } catch (const ContractViolation&) {
      tripped = true;
    }
  }
  EXPECT_TRUE(tripped);
}

}  // namespace
}  // namespace tfr
