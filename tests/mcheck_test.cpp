// Tests for the mcheck stateless model checker: exhaustive verification
// of the paper's algorithms on small configurations, the known Fischer
// counterexample, byte-identical counterexample replay, and the
// DPOR-vs-naive pruning regression.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/mcheck/catalog.hpp"
#include "tfr/mcheck/explorer.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"
#include "tfr/obs/replay.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"

namespace tfr {
namespace {

mcheck::ExploreConfig small_config() {
  mcheck::ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  return config;
}

// Algorithm 1, n=2, inputs {0,1}, round bound 2: agreement and validity
// hold on every execution within the bounds, every failure-free
// execution decides before round 2, and the DFS runs to completion.
TEST(McheckConsensus, ExhaustiveNoViolation) {
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.executions, 1000u);
  // With n=2 the sleep-set reduction manifests as whole executions cut at
  // a node whose every option is asleep.
  EXPECT_GT(result.stats.sleep_blocked, 0u);
}

// The default reduction (source-set DPOR over sleep sets) must explore
// strictly fewer executions than naive DFS while reaching the same
// verdict, with nonzero dependent-access race and source-pruning
// activity.  A slow-access budget of 0 keeps the naive state space small
// enough for a unit test.
TEST(McheckConsensus, SleepSetsPruneAgainstNaiveDfs) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = 0;

  const mcheck::CheckResult reduced =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  config.reduction = mcheck::Reduction::kNone;
  const mcheck::CheckResult naive =
      mcheck::check(mcheck::make_consensus_scenario({}), config);

  EXPECT_FALSE(reduced.violation);
  EXPECT_FALSE(naive.violation);
  EXPECT_TRUE(reduced.stats.complete);
  EXPECT_TRUE(naive.stats.complete);
  EXPECT_LT(reduced.stats.executions, naive.stats.executions);
  EXPECT_LT(reduced.stats.states, naive.stats.states);
  EXPECT_EQ(naive.stats.sleep_blocked, 0u);
  EXPECT_GT(reduced.stats.races_detected, 0u);
  EXPECT_GT(reduced.stats.source_pruned, 0u);
  EXPECT_EQ(naive.stats.races_detected, 0u);
  EXPECT_EQ(naive.stats.source_pruned, 0u);
}

// Bare Fischer (Algorithm 2) under a single timing failure: the explorer
// must find the known mutual-exclusion violation (§3.1) and emit a
// counterexample that replays byte-identically through the trace layer.
TEST(McheckFischer, FindsKnownViolationAndReplays) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  const mcheck::CheckScenario scenario = mcheck::make_mutex_scenario({});

  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.what, "mutual exclusion violated");
  EXPECT_FALSE(result.counterexample.timing.script.empty());
  EXPECT_FALSE(result.counterexample.timing.schedule.empty());

  // Golden replay: the recorded trace must reproduce byte-for-byte.
  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  // And the re-run must reproduce the violation itself.
  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, "mutual exclusion violated");
}

// The counterexample survives serialization: save bytes, load them back,
// and the loaded run still replays byte-identically.
TEST(McheckFischer, CounterexampleSerializationRoundtrip) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  const mcheck::CheckScenario scenario = mcheck::make_mutex_scenario({});
  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);

  const std::string bytes = result.counterexample.to_bytes();
  const std::optional<obs::RecordedRun> loaded =
      obs::RecordedRun::from_bytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->timing.kind, obs::TimingSpec::Kind::kScripted);
  EXPECT_EQ(loaded->timing.script, result.counterexample.timing.script);
  EXPECT_EQ(loaded->timing.schedule, result.counterexample.timing.schedule);
  EXPECT_EQ(loaded->trace, result.counterexample.trace);

  const obs::ReplayResult replayed = obs::replay(
      *loaded, mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical);
}

// Golden pin: the catalog's fischer-n2 counterexample serializes to the
// same bytes as with the binary-heap event queue (FNV-1a of to_bytes()).
// Replay checks compare two runs of one binary; this one compares
// against a constant.
TEST(McheckFischer, CatalogCounterexampleBytesArePinned) {
  const mcheck::NamedCheck entry = mcheck::catalog_entry("fischer-n2");
  const mcheck::CheckResult result =
      mcheck::check(entry.scenario, entry.config);
  ASSERT_TRUE(result.violation);
  const std::string bytes = result.counterexample.to_bytes();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0xc418475556cc025dULL);
  EXPECT_EQ(bytes.size(), 724u);
}

// Without a timing failure budget Fischer is safe: the same scenario
// explored with max_failures = 0 must come up clean — the violation
// really is caused by the injected failure.
TEST(McheckFischer, SafeWithoutTimingFailures) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  config.max_failures = 0;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_mutex_scenario({}), config);
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// Algorithm 3 (Fischer filter over a starvation-free asynchronous A)
// keeps mutual exclusion even under the timing failure that breaks bare
// Fischer (Theorem 3.3's safety half), exhaustively for n=2.
TEST(McheckTfrMutex, ExhaustiveNoViolation) {
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.sleep_blocked, 0u);
}

// A scripted TimingSpec (the counterexample format) roundtrips through
// the flat serialization, including the schedule and per-access costs.
TEST(McheckReplayFormat, ScriptedSpecRoundtrip) {
  obs::RecordedRun run;
  run.seed = 42;
  run.timing.kind = obs::TimingSpec::Kind::kScripted;
  run.timing.lo = 1;
  run.timing.delta = 2;
  run.timing.script = {{0, 1}, {1, 5}, {0, 2}};
  run.timing.schedule = {0, 1, 1, 0};
  run.trace = "not-a-real-trace";

  const std::optional<obs::RecordedRun> loaded =
      obs::RecordedRun::from_bytes(run.to_bytes());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->timing.kind, obs::TimingSpec::Kind::kScripted);
  EXPECT_EQ(loaded->timing.script, run.timing.script);
  EXPECT_EQ(loaded->timing.schedule, run.timing.schedule);
  EXPECT_EQ(loaded->trace, run.trace);
  // A scripted spec never wraps a FailureInjector: the failures are in
  // the script itself.
  EXPECT_FALSE(loaded->timing.has_injector());
}

// The exploration honours its max_executions bound and says so.
TEST(McheckBounds, AbortsAtMaxExecutions) {
  mcheck::ExploreConfig config = small_config();
  config.max_executions = 10;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  EXPECT_FALSE(result.stats.complete);
  EXPECT_EQ(result.stats.executions, 10u);
}

// --- parallel exploration: jobs > 1 must be indistinguishable ------------

void expect_stats_equal(const mcheck::ExploreStats& parallel,
                        const mcheck::ExploreStats& serial) {
  EXPECT_EQ(parallel.executions, serial.executions);
  EXPECT_EQ(parallel.states, serial.states);
  EXPECT_EQ(parallel.transitions, serial.transitions);
  EXPECT_EQ(parallel.sched_choice_points, serial.sched_choice_points);
  EXPECT_EQ(parallel.cost_choice_points, serial.cost_choice_points);
  EXPECT_EQ(parallel.sleep_pruned, serial.sleep_pruned);
  EXPECT_EQ(parallel.sleep_blocked, serial.sleep_blocked);
  EXPECT_EQ(parallel.races_detected, serial.races_detected);
  EXPECT_EQ(parallel.source_pruned, serial.source_pruned);
  EXPECT_EQ(parallel.state_pruned, serial.state_pruned);
  EXPECT_EQ(parallel.truncated, serial.truncated);
  EXPECT_EQ(parallel.complete, serial.complete);
}

/// Runs the scenario serially and at jobs {2, 4}; every parallel result
/// must match the serial one exactly — verdict, the full ExploreStats,
/// and (for violations) the counterexample artifact byte-for-byte.
void expect_parallel_equivalent(const mcheck::CheckScenario& scenario,
                                const mcheck::ExploreConfig& base) {
  mcheck::ExploreConfig config = base;
  config.jobs = 1;
  const mcheck::CheckResult serial = mcheck::check(scenario, config);
  for (const int jobs : {2, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    config.jobs = jobs;
    const mcheck::CheckResult parallel = mcheck::check(scenario, config);
    EXPECT_EQ(parallel.violation, serial.violation);
    EXPECT_EQ(parallel.what, serial.what);
    expect_stats_equal(parallel.stats, serial.stats);
    if (serial.violation) {
      EXPECT_EQ(parallel.counterexample.to_bytes(),
                serial.counterexample.to_bytes());
    }
  }
}

// Algorithm 1 (clean verdict): the work-sharing frontier partitions a
// sleep-set-reduced tree; merged stats must equal the serial count of
// every event class, including the ones incurred at prefix depths.
TEST(McheckParallel, ConsensusMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_consensus_scenario({}),
                             small_config());
}

// Bare Fischer (violating): the merged result must pick the DFS-least
// violating execution — the same one the serial run finds first — and
// hand back a byte-identical counterexample, no matter which worker
// reported a violation first.
TEST(McheckParallel, FischerViolationMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = -1;
  expect_parallel_equivalent(mcheck::make_mutex_scenario({}), config);
}

// Algorithm 3 over starvation-free A (clean, heavy sleep-set activity).
TEST(McheckParallel, TfrMutexMatchesSerial) {
  mcheck::MutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::MutexScenarioConfig::Algorithm::kTfrStarvationFree;
  expect_parallel_equivalent(mcheck::make_mutex_scenario(scenario),
                             small_config());
}

// ABD with a crashed minority (clean, message-passing over channel
// registers, sleep-blocked probes at shallow depths; reads on uniform-tag
// quorums skip the write-back round).
TEST(McheckParallel, AbdMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  config.max_steps = 600;
  expect_parallel_equivalent(mcheck::make_abd_scenario({}), config);
}

// The same with the writer's own replica down instead: a different
// quorum, hence a different tree of fast and write-back reads, must
// partition just as deterministically.
TEST(McheckParallel, AbdFastReadMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  config.max_steps = 600;
  mcheck::AbdScenarioConfig scenario;
  scenario.crashed_server = 0;
  expect_parallel_equivalent(mcheck::make_abd_scenario(scenario), config);
}

// Naive DFS (no reduction) partitions at the same frontier depth; no
// reduction state crosses the frontier, so the merged counters must equal
// the serial ones.  A slow-access budget of 0 keeps the naive tree small.
TEST(McheckParallel, NaiveMatchesSerial) {
  mcheck::ExploreConfig config = small_config();
  config.slow_budget = 0;
  config.reduction = mcheck::Reduction::kNone;
  expect_parallel_equivalent(mcheck::make_consensus_scenario({}), config);
}

// max_executions is documented as per-worker-subtree in parallel mode;
// hitting it in any subtree must still be reported as an incomplete
// exploration.
TEST(McheckParallel, MaxExecutionsReportsIncomplete) {
  mcheck::ExploreConfig config = small_config();
  config.max_executions = 10;
  config.jobs = 2;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_consensus_scenario({}), config);
  EXPECT_FALSE(result.stats.complete);
}

// --- real-thread scenarios through the atomic interposition seam --------
//
// Suite naming is deliberate: McheckRt* suites include the forked
// (jobs > 1) explorations, RtShim* suites run everything in-process; the
// TSan job runs both, so it watches the fiber/pump hand-off and its
// sanitizer annotations directly and across fork.

mcheck::ExploreConfig rt_eventcount_config() {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  return config;
}

// Real-thread Fischer (rt::BasicFischerRt over ShimAtomics, the same
// source production instantiates with std::atomic) under one timing
// failure: the §3.1 violation must surface through the seam, and the
// counterexample must replay byte-identically.
TEST(McheckRtFischer, FindsKnownViolationAndReplays) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_mutex_scenario({});
  const mcheck::ExploreConfig config = small_config();

  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.what, "mutual exclusion violated (CS occupancy overlap)");
  EXPECT_FALSE(result.counterexample.timing.script.empty());
  EXPECT_FALSE(result.counterexample.timing.schedule.empty());

  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, result.what);
}

// The futex-class AtomicMutex (wait/notify protocol) verifies clean and
// exhaustively through the seam under the same failure budget.
TEST(McheckRtAtomicLock, ExhaustiveNoViolation) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// Algorithm 3 (tfr starvation-free mutex), real-thread flavour: clean and
// complete, the rt twin of McheckTfrMutex.ExhaustiveNoViolation.
TEST(McheckRtTfrMutex, ExhaustiveNoViolation) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm =
      mcheck::RtMutexScenarioConfig::Algorithm::kTfrStarvationFree;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// EventCount with the epoch published before the state write: the seam
// must find the lost-wakeup interleaving (both threads parked, simulation
// idle); the documented publication order must verify clean.
TEST(McheckRtEventCount, TornEpochLosesWakeupCorrectOrderDoesNot) {
  const mcheck::CheckResult torn = mcheck::check(
      mcheck::make_rt_eventcount_scenario({}), rt_eventcount_config());
  ASSERT_TRUE(torn.violation);
  EXPECT_EQ(torn.what, "lost wakeup: threads parked with the simulation idle");

  mcheck::RtEventCountScenarioConfig fixed;
  fixed.torn_epoch = false;
  const mcheck::CheckResult clean = mcheck::check(
      mcheck::make_rt_eventcount_scenario(fixed), rt_eventcount_config());
  EXPECT_FALSE(clean.violation) << clean.what;
  EXPECT_TRUE(clean.stats.complete);
}

// Forked-jobs parity for the rt scenarios: a forked worker inherits a
// copy of the fiber pool (stacks and contexts, no threads) and must not
// carry state across the fork, so jobs {2, 4} reproduce the serial
// verdict, stats and counterexample bytes exactly.
TEST(McheckRtParallel, FischerRtViolationMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_rt_mutex_scenario({}),
                             small_config());
}

TEST(McheckRtParallel, AtomicLockMatchesSerial) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  expect_parallel_equivalent(mcheck::make_rt_mutex_scenario(scenario),
                             small_config());
}

TEST(McheckRtParallel, EventCountTornMatchesSerial) {
  expect_parallel_equivalent(mcheck::make_rt_eventcount_scenario({}),
                             rt_eventcount_config());
}

// In-process determinism (TSan-covered): two serial explorations of the
// same rt scenario are bit-for-bit the same — stats and counterexample —
// proving the fiber/pump hand-off injects no nondeterminism (and, under
// TSan, no data races).
TEST(RtShimDeterminism, RepeatedEventCountRunsAreIdentical) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_eventcount_scenario({});
  const mcheck::ExploreConfig config = rt_eventcount_config();
  const mcheck::CheckResult first = mcheck::check(scenario, config);
  const mcheck::CheckResult second = mcheck::check(scenario, config);
  ASSERT_TRUE(first.violation);
  ASSERT_TRUE(second.violation);
  EXPECT_EQ(first.what, second.what);
  expect_stats_equal(first.stats, second.stats);
  EXPECT_EQ(first.counterexample.to_bytes(), second.counterexample.to_bytes());
}

// In-process replay (TSan-covered): the recorded lost-wakeup run drives
// the pooled fibers down the identical path, byte-for-byte.
TEST(RtShimReplay, EventCountCounterexampleReplaysByteIdentical) {
  const mcheck::CheckScenario scenario = mcheck::make_rt_eventcount_scenario({});
  const mcheck::ExploreConfig config = rt_eventcount_config();
  const mcheck::CheckResult result = mcheck::check(scenario, config);
  ASSERT_TRUE(result.violation);

  const obs::ReplayResult replayed = obs::replay(
      result.counterexample,
      mcheck::counterexample_scenario(scenario, config));
  EXPECT_TRUE(replayed.identical)
      << "first divergence at event " << replayed.first_divergence;

  const mcheck::CheckOutcome reproduced =
      mcheck::run_recorded(result.counterexample, scenario, config);
  EXPECT_FALSE(reproduced.ok);
  EXPECT_EQ(reproduced.what, result.what);
}

// In-process wait/notify workout (TSan-covered): the AtomicMutex check
// parks and wakes pump coroutines on every execution, so a clean complete
// run here means the park-list handshake is race-free.
TEST(RtShimWaitNotify, AtomicLockVerifiesCleanInProcess) {
  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.executions, 10u);
}

// A two-thread rt scenario over one shared shim cell: thread `id` runs
// body(cell, id).  Same ownership shape as mcheck/rt_scenarios.cpp: the
// verdict closure alone owns the Holder, bodies share the cell.
template <class Body>
mcheck::CheckScenario two_thread_scenario(Body body) {
  return [body](sim::Simulation& simulation) -> mcheck::RunHarness {
    auto holder = rtshim::Holder<rtshim::atomic<int>>::make(simulation, 0);
    for (int id = 0; id < 2; ++id) {
      holder->exec->spawn_thread(
          [cell = holder->algo, body, id] { body(*cell, id); });
    }
    mcheck::RunHarness harness;
    harness.verdict = [holder](const mcheck::RunInfo&) {
      return mcheck::CheckOutcome{};
    };
    return harness;
  };
}

mcheck::ExploreConfig fiber_config() {
  mcheck::ExploreConfig config = small_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  return config;
}

// Shim threads are fibers on the explorer's own OS thread: no body ever
// runs on another thread.
TEST(RtShimFiber, BodiesRunOnTheExplorersThread) {
  const std::thread::id explorer = std::this_thread::get_id();
  auto bodies = std::make_shared<int>(0);
  auto elsewhere = std::make_shared<int>(0);
  const mcheck::CheckResult result = mcheck::check(
      two_thread_scenario([=](rtshim::atomic<int>& cell, int id) {
        ++*bodies;
        if (std::this_thread::get_id() != explorer) ++*elsewhere;
        cell.store(id);
        if (std::this_thread::get_id() != explorer) ++*elsewhere;
        (void)cell.load();
      }),
      fiber_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(*bodies, 2);
  EXPECT_EQ(*elsewhere, 0);
}

// A fiber's first frame is laid out by hand, so its stack alignment is
// not the compiler's to get right.  glibc's printf spills long double and
// SSE registers with aligned moves: a first frame off by 8 faults here,
// before the first op or after a reply.
TEST(RtShimFiber, EntryStackIsAbiAligned) {
  auto formatted = std::make_shared<int>(0);
  auto wrong = std::make_shared<int>(0);
  const mcheck::CheckResult result = mcheck::check(
      two_thread_scenario([=](rtshim::atomic<int>& cell, int id) {
        const std::string expected = id == 0 ? "1.50 0.250" : "2.50 1.250";
        char text[32];
        std::snprintf(text, sizeof text, "%.2Lf %.3f", 1.5L + id, 0.25 + id);
        if (text != expected) ++*wrong;
        cell.store(id);
        std::snprintf(text, sizeof text, "%.2Lf %.3f", 1.5L + id, 0.25 + id);
        if (text != expected) ++*wrong;
        ++*formatted;
      }),
      fiber_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(*formatted, 2);
  EXPECT_EQ(*wrong, 0);
}

// True iff the rounding mode in effect rounds up.  fegetround reads the
// x87 control word on x86-64; this adds in SSE, so it reads MXCSR.
bool in_rounding_mode(int mode) {
  volatile double tiny = 1e-30;
  const bool rounds_up = 1.0 + tiny > 1.0;
  return std::fegetround() == mode && rounds_up == (mode == FE_UPWARD);
}

// The FP control state (rounding mode, exception masks) is per fiber, as
// it is per context under glibc's context-switch calls: a body's
// fesetround holds across its ops, and neither the explorer's thread nor
// the other fiber sees it.
TEST(RtShimFiber, FloatingPointControlIsPerFiber) {
  ASSERT_TRUE(in_rounding_mode(FE_TONEAREST));
  auto bodies = std::make_shared<int>(0);
  auto wrong = std::make_shared<int>(0);
  auto stops = std::make_shared<int>(0);
  const mcheck::CheckScenario threads =
      two_thread_scenario([=](rtshim::atomic<int>& cell, int id) {
        const int mode = id == 0 ? FE_UPWARD : FE_TONEAREST;
        if (id == 0) std::fesetround(FE_UPWARD);
        cell.store(id);  // suspended: the pump and the other fiber run
        if (!in_rounding_mode(mode)) ++*wrong;
        (void)cell.load();
        if (!in_rounding_mode(mode)) ++*wrong;
        ++*bodies;
      });
  // The stop hook runs on the explorer's thread between steps, with every
  // fiber suspended.
  const mcheck::CheckScenario scenario =
      [=](sim::Simulation& simulation) -> mcheck::RunHarness {
    mcheck::RunHarness harness = threads(simulation);
    harness.stop = [=] {
      ++*stops;
      if (!in_rounding_mode(FE_TONEAREST)) ++*wrong;
      return false;
    };
    return harness;
  };
  const mcheck::CheckResult result = mcheck::check(scenario, fiber_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(*bodies, 2);
  EXPECT_GT(*stops, 2);
  EXPECT_EQ(*wrong, 0);
  EXPECT_TRUE(in_rounding_mode(FE_TONEAREST));
}

// An exception a body throws (a bug in the code under test) leaves its
// fiber, surfaces out of the run, and leaves the pool usable: the next
// exploration on the same pooled slots verifies normally.
TEST(RtShimFiber, BodyExceptionSurfacesAndPoolStaysUsable) {
  const mcheck::CheckScenario throwing =
      two_thread_scenario([](rtshim::atomic<int>& cell, int id) {
        (void)cell.load();
        if (id == 0) throw std::runtime_error("body failed");
        cell.store(1);
      });
  for (int round = 0; round < 2; ++round) {
    try {
      (void)mcheck::check(throwing, fiber_config());
      ADD_FAILURE() << "the body's exception did not surface";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "body failed");
    }
  }

  mcheck::RtMutexScenarioConfig scenario;
  scenario.algorithm = mcheck::RtMutexScenarioConfig::Algorithm::kAtomicLock;
  const mcheck::CheckResult result =
      mcheck::check(mcheck::make_rt_mutex_scenario(scenario), small_config());
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_TRUE(result.stats.complete);
}

// Runs cut at a small step bound leave fibers suspended mid-body; teardown
// must unwind each one and drop its closure.  A sentinel owned by each
// body closure counts the drops: exactly one per spawned thread.
TEST(RtShimFiber, TruncatedRunsDropEveryClosureOnce) {
  struct Sentinel {
    explicit Sentinel(std::shared_ptr<int> counter)
        : dropped(std::move(counter)) {}
    ~Sentinel() { ++*dropped; }
    std::shared_ptr<int> dropped;
  };
  auto spawned = std::make_shared<int>(0);
  auto dropped = std::make_shared<int>(0);
  const mcheck::CheckScenario scenario =
      [spawned, dropped](sim::Simulation& simulation) -> mcheck::RunHarness {
    auto holder = rtshim::Holder<rtshim::atomic<int>>::make(simulation, 0);
    for (int id = 0; id < 2; ++id) {
      ++*spawned;
      holder->exec->spawn_thread(
          [cell = holder->algo,
           sentinel = std::make_shared<Sentinel>(dropped)] {
            for (int i = 0; i < 50; ++i) cell->store(cell->load() + 1);
          });
    }
    mcheck::RunHarness harness;
    harness.verdict = [holder](const mcheck::RunInfo&) {
      return mcheck::CheckOutcome{};
    };
    return harness;
  };
  mcheck::ExploreConfig config = fiber_config();
  config.max_steps = 6;
  std::uint64_t truncated = 0;
  for (int round = 0; round < 20; ++round) {
    truncated += mcheck::check(scenario, config).stats.truncated;
  }
  EXPECT_GT(truncated, 20u);
  EXPECT_GT(*spawned, 40);
  EXPECT_EQ(*dropped, *spawned);
}

// --- the named check catalog ---------------------------------------------

TEST(McheckCatalog, NamesAreUniqueAndEachEntryHasOneGroup) {
  const std::vector<mcheck::NamedCheck> checks = mcheck::catalog();
  std::set<std::string> names;
  std::size_t sim = 0;
  std::size_t rt = 0;
  for (const mcheck::NamedCheck& check : checks) {
    EXPECT_TRUE(names.insert(check.name).second) << check.name;
    EXPECT_FALSE(check.description.empty()) << check.name;
    if (check.group == mcheck::CheckGroup::kSim) {
      ++sim;
    } else {
      ++rt;
    }
  }
  EXPECT_EQ(sim, 5u);
  EXPECT_EQ(rt, 7u);
  EXPECT_EQ(sim + rt, checks.size());
  EXPECT_EQ(mcheck::catalog_entry("fischer-rt-n2").group,
            mcheck::CheckGroup::kRt);
  EXPECT_THROW(mcheck::catalog_entry("no-such-check"), ContractViolation);
}

// The cheap entries reach their expected verdicts in exactly these many
// executions: a change to an entry's scenario or bounds moves the count.
TEST(McheckCatalog, CheapEntriesReachTheirVerdicts) {
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"consensus-n2", 3410},
      {"abd-n3-minority-down", 49},
      {"atomic-lock-rt-n2", 139},
      {"consensus-rt-n2", 3440},
      {"multi-consensus-rt-n2", 1226},
      {"eventcount-torn-epoch", 2},
      {"eventcount-write-then-advance", 4},
  };
  for (const auto& [name, executions] : expected) {
    SCOPED_TRACE(name);
    const mcheck::NamedCheck check = mcheck::catalog_entry(name);
    const mcheck::CheckResult result =
        mcheck::check(check.scenario, check.config);
    EXPECT_EQ(result.violation, check.expect_violation) << result.what;
    if (!check.expect_violation) {
      EXPECT_TRUE(result.stats.complete);
    }
    EXPECT_EQ(result.stats.executions, executions);
  }
}

}  // namespace
}  // namespace tfr
