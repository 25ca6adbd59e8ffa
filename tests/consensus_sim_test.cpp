// Tests for Algorithm 1 (time-resilient consensus), simulator edition:
// every claim of Theorems 2.1-2.4 plus property sweeps over schedules,
// inputs, failure patterns and crash patterns.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::core {
namespace {

using sim::Duration;
using sim::FailureInjector;
using sim::make_fixed_timing;
using sim::make_uniform_timing;

constexpr Duration kDelta = 100;

std::vector<int> split_inputs(std::size_t n) {
  std::vector<int> inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs[i] = static_cast<int>(i % 2);
  return inputs;
}

// --- Theorem 2.2 (validity) -------------------------------------------------

TEST(Consensus, ValidityAllZeros) {
  const auto out = run_consensus({0, 0, 0}, kDelta, make_fixed_timing(kDelta));
  EXPECT_TRUE(out.all_decided);
  EXPECT_EQ(out.value, 0);
}

TEST(Consensus, ValidityAllOnes) {
  const auto out = run_consensus({1, 1, 1, 1}, kDelta, make_fixed_timing(kDelta));
  EXPECT_TRUE(out.all_decided);
  EXPECT_EQ(out.value, 1);
}

TEST(Consensus, SplitInputsDecideSomeInput) {
  const auto out =
      run_consensus(split_inputs(6), kDelta, make_uniform_timing(1, kDelta), 3);
  EXPECT_TRUE(out.all_decided);
  EXPECT_TRUE(out.value == 0 || out.value == 1);
}

// --- Theorem 2.1, bullet 1: decide within 15 Delta without failures ---------

TEST(Consensus, DecidesWithin15DeltaLockstep) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 16u, 32u}) {
    const auto out =
        run_consensus(split_inputs(n), kDelta, make_fixed_timing(kDelta));
    EXPECT_TRUE(out.all_decided) << "n=" << n;
    EXPECT_LE(out.last_decision, 15 * kDelta) << "n=" << n;
  }
}

TEST(Consensus, DecidesWithin15DeltaRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto out = run_consensus(split_inputs(5), kDelta,
                                   make_uniform_timing(1, kDelta), seed);
    ASSERT_TRUE(out.all_decided) << "seed=" << seed;
    EXPECT_LE(out.last_decision, 15 * kDelta) << "seed=" << seed;
  }
}

// --- Theorem 2.1, bullet 4: fast path = 7 steps, no delay --------------------

TEST(Consensus, SoloProcessDecidesInExactly7Steps) {
  for (int input : {0, 1}) {
    const auto out = run_consensus({input}, kDelta, make_fixed_timing(kDelta));
    EXPECT_TRUE(out.all_decided);
    EXPECT_EQ(out.value, input);
    EXPECT_EQ(out.steps[0], 7u);
    EXPECT_EQ(out.delays[0], 0u);
  }
}

TEST(Consensus, FastPathHoldsEvenDuringTimingFailures) {
  // "regardless of timing failures": a contention-free process still takes
  // exactly 7 steps when every one of its accesses outlasts Delta.
  const auto out = run_consensus({1}, kDelta, make_fixed_timing(50 * kDelta));
  EXPECT_TRUE(out.all_decided);
  EXPECT_EQ(out.steps[0], 7u);
  EXPECT_EQ(out.delays[0], 0u);
}

TEST(Consensus, SequentialArrivalsAlsoFast) {
  // A process arriving after the decision reads `decide` set and needs just
  // one step.
  sim::Simulation s(make_fixed_timing(kDelta));
  SimConsensus consensus(s.space(), kDelta);
  consensus.monitor().set_input(0, 1);
  consensus.monitor().set_input(1, 0);
  s.spawn([&](sim::Env env) { return consensus.participant(env, 1); });
  s.spawn([&](sim::Env env) { return consensus.participant(env, 0); },
          /*start=*/2000);  // well after the first decided
  s.run();
  EXPECT_TRUE(consensus.monitor().all_decided(2));
  EXPECT_EQ(consensus.decided_value(), 1);
  EXPECT_EQ(s.stats(1).accesses(), 1u);  // one read of decide
}

// --- Theorem 2.3 (agreement) under adversarial timing ------------------------

TEST(Consensus, AgreementHoldsUnderRandomFailures) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    auto injector = std::make_unique<FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->set_random_failures(0.25, 12 * kDelta);
    const auto out = run_consensus(split_inputs(4), kDelta,
                                   std::move(injector), seed, 4'000'000);
    // Liveness may be delayed arbitrarily by failures (bounded run), but
    // whatever was decided must satisfy agreement & validity — enforced by
    // the monitor (throws on violation), so reaching here means safety held.
    if (out.all_decided) {
      EXPECT_TRUE(out.value == 0 || out.value == 1);
    }
  }
}

TEST(Consensus, AgreementHoldsUnderTargetedWindows) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    auto injector = std::make_unique<FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    // One victim process is stretched through the whole first ten rounds.
    injector->add_window(
        {.begin = 0, .end = 70 * kDelta, .victims = {0}, .stretched = 9 * kDelta});
    const auto out = run_consensus(split_inputs(3), kDelta,
                                   std::move(injector), seed, 4'000'000);
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
  }
}

// --- Theorem 2.1, bullet 2: decide by end of round r+1 after failures stop ---

TEST(Consensus, ConvergesOneRoundAfterFailuresStop) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const sim::Time failure_end = 23 * kDelta;
    auto injector = std::make_unique<FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->add_window(
        {.begin = 0, .end = failure_end, .stretched = 3 * kDelta});
    auto* injector_ptr = injector.get();

    sim::Simulation s(std::move(injector), {.seed = seed});
    SimConsensus consensus(s.space(), kDelta);
    const auto inputs = split_inputs(4);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
      s.spawn([&, input = inputs[i]](sim::Env env) {
        return consensus.participant(env, input);
      });
    }
    // Run until the last failed access has completed, snapshot the round.
    s.run(failure_end + 3 * kDelta);
    const std::size_t round_at_stop = consensus.max_round();
    s.run();
    ASSERT_TRUE(consensus.monitor().all_decided(inputs.size()));
    // Theorem 2.1 promises decisions by round r + 1 when no failures occur
    // from the *beginning* of round r.  Our snapshot is taken mid-round
    // (the instant the last stretched access completes), which can bleed
    // one poisoned round into the count — hence the r + 2 bound here.  The
    // exact distribution is reported by bench E3.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_LE(consensus.decision_round(static_cast<sim::Pid>(i)),
                round_at_stop + 2)
          << "seed=" << seed;
    }
    EXPECT_GE(injector_ptr->failures_injected(), 1u);
  }
}

// --- Theorem 2.4 (wait-freedom) ----------------------------------------------

TEST(Consensus, DecidesDespiteCrashes) {
  for (std::size_t crashes = 1; crashes < 4; ++crashes) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
      SimConsensus consensus(s.space(), kDelta);
      const auto inputs = split_inputs(4);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
        s.spawn([&, input = inputs[i]](sim::Env env) {
          return consensus.participant(env, input);
        });
      }
      // Crash the first `crashes` processes at staggered step counts.
      for (std::size_t c = 0; c < crashes; ++c)
        s.crash_after_accesses(static_cast<sim::Pid>(c), 2 + c + seed % 3);
      s.run(4'000'000);
      // All survivors decide.
      for (std::size_t i = crashes; i < inputs.size(); ++i) {
        EXPECT_TRUE(consensus.monitor().has_decided(static_cast<sim::Pid>(i)))
            << "crashes=" << crashes << " seed=" << seed << " pid=" << i;
      }
    }
  }
}

TEST(Consensus, LoneSurvivorDecides) {
  sim::Simulation s(make_fixed_timing(kDelta));
  SimConsensus consensus(s.space(), kDelta);
  for (int i = 0; i < 5; ++i) {
    consensus.monitor().set_input(i, i % 2);
    s.spawn([&, input = i % 2](sim::Env env) {
      return consensus.participant(env, input);
    });
  }
  for (int i = 0; i < 4; ++i) s.crash_after_accesses(i, 3);
  s.run();
  EXPECT_TRUE(consensus.monitor().has_decided(4));
}

// --- Theorem 2.1, bullet 5: unbounded participation --------------------------

TEST(Consensus, ManyParticipants) {
  const auto out = run_consensus(split_inputs(128), kDelta,
                                 make_uniform_timing(1, kDelta), 5);
  EXPECT_TRUE(out.all_decided);
  EXPECT_LE(out.last_decision, 15 * kDelta);
}

TEST(Consensus, LateArrivalsJoinFreely) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 11});
  SimConsensus consensus(s.space(), kDelta);
  for (int i = 0; i < 10; ++i) {
    consensus.monitor().set_input(i, i % 2);
    s.spawn(
        [&, input = i % 2](sim::Env env) {
          return consensus.participant(env, input);
        },
        /*start=*/static_cast<sim::Time>(i) * 40);
  }
  s.run();
  EXPECT_TRUE(consensus.monitor().all_decided(10));
}

// --- Resource accounting ------------------------------------------------------

TEST(Consensus, FailureFreeRunsUseConstantRegisters) {
  // Two rounds worst case without failures: x0/x1/y for rounds 0..1 plus
  // decide = at most 7 registers.
  const auto out =
      run_consensus(split_inputs(8), kDelta, make_fixed_timing(kDelta));
  EXPECT_LE(out.registers_allocated, 7u);
  EXPECT_LE(out.max_round, 1u);
}

TEST(Consensus, RegistersGrowOnlyWithRounds) {
  auto injector = std::make_unique<FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.3, 10 * kDelta);
  const auto out = run_consensus(split_inputs(4), kDelta, std::move(injector),
                                 17, 4'000'000);
  // 3 registers per allocated round + decide; rounds tracked 0-based.
  EXPECT_LE(out.registers_allocated, 3 * (out.max_round + 2) + 1);
}

// --- Optimistic Delta ----------------------------------------------------------

TEST(Consensus, SafeWithTooSmallDelta) {
  // Algorithm assumes Delta = 10 but real steps take up to 100: permanent
  // timing failures.  Safety must hold; progress arrives eventually under
  // random (non-adversarial) timing.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto out = run_consensus(split_inputs(4), /*algorithm_delta=*/10,
                                   make_uniform_timing(1, 100), seed,
                                   10'000'000);
    EXPECT_TRUE(out.all_decided) << "seed=" << seed;
    EXPECT_TRUE(out.value == 0 || out.value == 1);
  }
}

TEST(Consensus, OverestimatedDeltaStillCorrectJustSlower) {
  const auto out = run_consensus(split_inputs(4), /*algorithm_delta=*/5000,
                                 make_uniform_timing(1, 100), 3);
  EXPECT_TRUE(out.all_decided);
  EXPECT_LE(out.max_round, 2u);
}

// --- Property sweep: (n, schedule, failure rate) matrix -----------------------

class ConsensusSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConsensusSweep, SafetyAndTermination) {
  const int n = std::get<0>(GetParam());
  const int schedule = std::get<1>(GetParam());      // 0 sync, 1 random
  const int failure_pct = std::get<2>(GetParam());   // 0, 10, 30

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::unique_ptr<sim::TimingModel> timing =
        schedule == 0 ? make_fixed_timing(kDelta)
                      : make_uniform_timing(1, kDelta);
    if (failure_pct > 0) {
      auto injector =
          std::make_unique<FailureInjector>(std::move(timing), kDelta);
      injector->set_random_failures(failure_pct / 100.0, 8 * kDelta);
      timing = std::move(injector);
    }
    const auto out =
        run_consensus(split_inputs(static_cast<std::size_t>(n)), kDelta,
                      std::move(timing), seed, 8'000'000);
    ASSERT_TRUE(out.all_decided)
        << "n=" << n << " schedule=" << schedule << " fail%=" << failure_pct
        << " seed=" << seed;
    EXPECT_TRUE(out.value == 0 || out.value == 1);
    if (failure_pct == 0) {
      EXPECT_LE(out.last_decision, 15 * kDelta);
    }
  }
}

// --- One algorithm, two sources -------------------------------------------

/// What a run of n processes proposing i % 2 leaves behind.
struct StepTrace {
  std::vector<std::uint64_t> accesses;  ///< per process
  std::vector<int> decisions;           ///< per process
  sim::Time end = 0;                    ///< Simulation::now() after the run
};

std::unique_ptr<sim::TimingModel> differential_timing(bool failures) {
  if (!failures) return make_uniform_timing(1, kDelta);
  auto injector = std::make_unique<FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.1, 8 * kDelta);
  return injector;
}

sim::Process propose_into(sim::Env env, SimConsensus& consensus, int input,
                          int* out) {
  *out = co_await consensus.propose(env, input);
}

StepTrace finish(const sim::Simulation& s, std::vector<int> decisions) {
  StepTrace trace{{}, std::move(decisions), s.now()};
  for (std::size_t i = 0; i < trace.decisions.size(); ++i)
    trace.accesses.push_back(s.stats(static_cast<sim::Pid>(i)).accesses());
  return trace;
}

StepTrace run_sim_source(int n, bool failures, std::uint64_t seed) {
  sim::Simulation s(differential_timing(failures), {.seed = seed});
  SimConsensus consensus(s.space(), kDelta);
  std::vector<int> out(static_cast<std::size_t>(n), sim::kBot);
  for (int i = 0; i < n; ++i) {
    s.spawn([&consensus, input = i % 2,
             slot = &out[static_cast<std::size_t>(i)]](sim::Env env) {
      return propose_into(env, consensus, input, slot);
    });
  }
  s.run(100'000'000);
  return finish(s, std::move(out));
}

StepTrace run_rt_source(int n, bool failures, std::uint64_t seed) {
  using Consensus = rt::BasicRtConsensus<rtshim::ShimAtomics>;
  sim::Simulation s(differential_timing(failures), {.seed = seed});
  std::vector<int> out(static_cast<std::size_t>(n), sim::kBot);
  const auto holder = rtshim::Holder<Consensus>::make(
      s, Consensus::Config{.delta = kDelta});
  holder->spawn_each(n, [&out](Consensus& consensus, int i) {
    out[static_cast<std::size_t>(i)] = consensus.propose_value(i % 2);
  });
  s.run(100'000'000);
  return finish(s, std::move(out));
}

// core::SimConsensus (the coroutine round loop) and the rt source on shim
// threads take the same shared steps under the same timing: E11 measures
// the derived objects on the rt source and relies on this.
TEST(ConsensusSources, SimAndShimRtTakeTheSameSteps) {
  for (const int n : {2, 4}) {
    for (const bool failures : {false, true}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " failures="
                                          << failures << " seed=" << seed);
        const StepTrace sim_trace = run_sim_source(n, failures, seed);
        const StepTrace rt_trace = run_rt_source(n, failures, seed);
        EXPECT_EQ(sim_trace.accesses, rt_trace.accesses);
        EXPECT_EQ(sim_trace.decisions, rt_trace.decisions);
        EXPECT_EQ(sim_trace.end, rt_trace.end);
        EXPECT_NE(rt_trace.decisions[0], sim::kBot);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConsensusSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 9, 17),
                       ::testing::Values(0, 1),
                       ::testing::Values(0, 10, 30)));

}  // namespace
}  // namespace tfr::core
