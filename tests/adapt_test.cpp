// Tests for the adaptive optimistic(Δ) controller seam (src/adapt/): the
// AIMD policies (single-threaded and atomic), the windowed-quantile
// timeliness estimator, the pinned manual policy, the saturating window
// growth used by the msg retry discipline, and same-seed determinism of a
// recorded drift run.  The thread suite is named RtAdaptiveController* so
// it rides the same sanitizer regexes as the other real-thread suites.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/adapt/graph.hpp"
#include "tfr/adapt/observe.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/obs/replay.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr {
namespace {

// --- Aimd -------------------------------------------------------------------
// The first three tests are the former core::OptimisticDelta suite (E10's
// local toy, retired in favour of adapt::Aimd) with the knobs renamed:
// min/max -> floor/ceiling, shrink_step -> decay_step, stable_threshold ->
// clean_threshold, on_retry/on_progress -> on_failure/on_clean.  The
// numeric sequences are unchanged — the policy is the same discipline.

TEST(AimdTest, GrowsOnFailureDecaysOnStableProgress) {
  adapt::Aimd est({.initial = 8,
                   .floor = 1,
                   .ceiling = 1024,
                   .grow_factor = 2.0,
                   .decay_step = 1,
                   .clean_threshold = 3});
  EXPECT_EQ(est.current(), 8);
  est.on_failure();
  EXPECT_EQ(est.current(), 16);
  est.on_failure();
  EXPECT_EQ(est.current(), 32);
  for (int i = 0; i < 3; ++i) est.on_clean();
  EXPECT_EQ(est.current(), 31);
  for (int i = 0; i < 2; ++i) est.on_clean();
  EXPECT_EQ(est.current(), 31);  // threshold not yet reached again
  est.on_clean();
  EXPECT_EQ(est.current(), 30);
  EXPECT_EQ(est.grows(), 2u);
  EXPECT_EQ(est.decays(), 2u);
}

TEST(AimdTest, RespectsBounds) {
  adapt::Aimd est({.initial = 2,
                   .floor = 2,
                   .ceiling = 4,
                   .grow_factor = 10.0,
                   .decay_step = 5,
                   .clean_threshold = 1});
  est.on_failure();
  EXPECT_EQ(est.current(), 4);  // capped
  est.on_failure();
  EXPECT_EQ(est.current(), 4);
  est.on_clean();
  EXPECT_EQ(est.current(), 4);  // decay below the floor rejected
  EXPECT_EQ(est.grows(), 1u);   // the capped second grow does not count
  EXPECT_EQ(est.decays(), 0u);
}

TEST(AimdTest, FailureResetsCleanRun) {
  adapt::Aimd est({.initial = 10,
                   .floor = 1,
                   .ceiling = 100,
                   .grow_factor = 2.0,
                   .decay_step = 1,
                   .clean_threshold = 2});
  est.on_clean();
  est.on_failure();  // clean run resets, estimate 20
  est.on_clean();
  EXPECT_EQ(est.current(), 20);  // one clean after reset: no decay yet
  est.on_clean();
  EXPECT_EQ(est.current(), 19);
}

TEST(AimdTest, DecayReachesTheFloorExactly) {
  adapt::Aimd est({.initial = 3,
                   .floor = 1,
                   .ceiling = 8,
                   .grow_factor = 2.0,
                   .decay_step = 2,
                   .clean_threshold = 1});
  est.on_clean();
  EXPECT_EQ(est.current(), 1);  // 3 - 2 lands exactly on the floor
  est.on_clean();
  EXPECT_EQ(est.current(), 1);  // 1 - 2 would cross it: rejected
}

TEST(AimdTest, GrowthIsAtLeastOneTick) {
  // ceil(1 * 1.2) == 2? No: ceil(1.2) = 2 — but with estimate 10 and
  // factor 1.05 the product truncates to 11 via ceil; the max(est + 1, .)
  // guard matters when ceil(est * factor) == est.
  adapt::Aimd est({.initial = 1,
                   .floor = 1,
                   .ceiling = 100,
                   .grow_factor = 1.0000001,
                   .decay_step = 1,
                   .clean_threshold = 1});
  est.on_failure();
  EXPECT_EQ(est.current(), 2);  // est + 1, not ceil(1.0000001)
}

TEST(AimdTest, CountersTrackEverySignal) {
  adapt::Aimd est({.initial = 4, .clean_threshold = 3});
  est.on_failure();
  est.on_clean();
  est.on_clean();
  est.observe(7, 123);  // AIMD ignores observations, the base counts them
  EXPECT_EQ(est.failure_events(), 1u);
  EXPECT_EQ(est.clean_events(), 2u);
  EXPECT_EQ(est.observations(), 1u);
}

// --- TimelinessEstimator ----------------------------------------------------

adapt::TimelinessEstimator::Config estimator_config() {
  return {.initial = 4,
          .floor = 1,
          .ceiling = 1000,
          .window = 4,
          .quantile = 1.0,
          .headroom = 2.0,
          .grow_factor = 2.0,
          .decay_step = 1,
          .clean_threshold = 2};
}

TEST(TimelinessEstimatorTest, EmptyWindowHoldsTheInitialEstimate) {
  adapt::TimelinessEstimator est(estimator_config());
  EXPECT_EQ(est.current(), 4);
  EXPECT_EQ(est.channels(), 0u);
  EXPECT_EQ(est.channel_quantile(0), 0);  // no samples: quantile 0
}

TEST(TimelinessEstimatorTest, SingleSampleIsEveryQuantile) {
  auto config = estimator_config();
  config.quantile = 0.25;  // even a low quantile of one sample is itself
  adapt::TimelinessEstimator est(config);
  est.observe(3, 10);
  EXPECT_EQ(est.channels(), 1u);
  EXPECT_EQ(est.channel_quantile(3), 10);
  EXPECT_EQ(est.current(), 20);  // headroom 2 x the quantile
}

TEST(TimelinessEstimatorTest, EstimateTracksTheWorstChannel) {
  adapt::TimelinessEstimator est(estimator_config());
  est.observe(0, 5);
  est.observe(1, 30);
  EXPECT_EQ(est.current(), 60);  // channel 1 dominates
  // The slow sample ages out of channel 1's window (size 4): the cached
  // worst must be rescanned downward, not pinned at the old maximum.
  for (int i = 0; i < 4; ++i) est.observe(1, 2);
  EXPECT_EQ(est.channel_quantile(1), 2);
  EXPECT_EQ(est.current(), 10);  // channel 0's 5 is now the worst
}

TEST(TimelinessEstimatorTest, QuantileIgnoresTheTailAboveIt) {
  auto config = estimator_config();
  config.quantile = 0.5;
  adapt::TimelinessEstimator est(config);
  for (const adapt::Duration d : {1, 2, 3, 100}) est.observe(0, d);
  // Order statistic at index floor(0.5 * 4) = 2 of {1,2,3,100} -> 3.
  EXPECT_EQ(est.channel_quantile(0), 3);
  EXPECT_EQ(est.current(), 6);
}

TEST(TimelinessEstimatorTest, BoostGrowsOnFailureAndDecaysWhenClean) {
  adapt::TimelinessEstimator est(estimator_config());
  EXPECT_EQ(est.boost(), 4);  // starts at the initial estimate
  est.on_failure();
  EXPECT_EQ(est.boost(), 8);
  EXPECT_EQ(est.current(), 8);  // no observations: the boost is the estimate
  est.on_clean();
  est.on_clean();  // clean_threshold = 2
  EXPECT_EQ(est.boost(), 7);
  EXPECT_EQ(est.current(), 7);
}

TEST(TimelinessEstimatorTest, BoostCapTiesFailureGrowthToObservations) {
  auto config = estimator_config();
  config.boost_cap = 2.0;
  adapt::TimelinessEstimator est(config);
  est.observe(0, 10);  // margined quantile = 20
  for (int i = 0; i < 10; ++i) est.on_failure();
  // Uncapped the boost would double each time into the ceiling; capped it
  // stops at boost_cap x the margined quantile.
  EXPECT_EQ(est.boost(), 40);
  EXPECT_EQ(est.current(), 40);
  // Without observations the cap is inert (nothing measured to tie to).
  adapt::TimelinessEstimator blind(config);
  blind.on_failure();
  EXPECT_EQ(blind.boost(), 8);
}

TEST(TimelinessEstimatorTest, EstimateStaysInsideTheClamp) {
  auto config = estimator_config();
  config.ceiling = 50;
  adapt::TimelinessEstimator est(config);
  est.observe(0, 1000);
  EXPECT_EQ(est.current(), 50);  // 2 x 1000 clamped to the ceiling
  for (int i = 0; i < 20; ++i) est.on_failure();
  EXPECT_EQ(est.current(), 50);
}

TEST(TimelinessEstimatorTest, PerChannelViewIsolatesChannelsFromEachOther) {
  adapt::TimelinessEstimator est(estimator_config());
  EXPECT_EQ(est.estimate_for(0), 4);  // no samples anywhere: the initial
  est.observe(0, 5);
  est.observe(1, 30);
  EXPECT_EQ(est.estimate_for(0), 10);  // headroom x its own quantile
  EXPECT_EQ(est.estimate_for(1), 60);
  EXPECT_EQ(est.current(), 60);        // the global view: the worst channel
  EXPECT_EQ(est.estimate_for(7), 60);  // cold channel inherits the global
  // A channel that goes silent keeps its window: channels are never
  // dropped, so the silent worst still sizes the global view.
  for (int i = 0; i < 100; ++i) est.observe(0, 5);
  EXPECT_EQ(est.channels(), 2u);
  EXPECT_EQ(est.current(), 60);
}

TEST(TimelinessEstimatorTest, FailureBoostStaysOutOfPerChannelViews) {
  adapt::TimelinessEstimator est(estimator_config());
  est.observe(0, 5);
  est.observe(1, 30);
  for (int i = 0; i < 4; ++i) est.on_failure();
  EXPECT_GT(est.current(), 60);  // the boost floor raised the global view
  // An expiry cannot name a culprit peer, so measured channels keep their
  // observation-driven view; only cold channels see the boosted global.
  EXPECT_EQ(est.estimate_for(0), 10);
  EXPECT_EQ(est.estimate_for(1), 60);
  EXPECT_EQ(est.estimate_for(7), est.current());
}

// --- TimelinessGraph --------------------------------------------------------

TEST(TimelinessGraphTest, ClassifiesStragglersAgainstTheLowerMedian) {
  adapt::TimelinessEstimator est(estimator_config());
  est.observe(0, 5);    // margined estimate 10
  est.observe(1, 6);    // 12
  est.observe(2, 100);  // 200
  const adapt::TimelinessGraph graph(est);
  EXPECT_EQ(graph.known(), 3u);
  EXPECT_EQ(graph.reference(), 12);  // lower median of {10, 12, 200}
  EXPECT_EQ(graph.classify(0), adapt::PeerClass::kTimely);
  EXPECT_EQ(graph.classify(1), adapt::PeerClass::kTimely);
  EXPECT_EQ(graph.classify(2), adapt::PeerClass::kStraggler);  // > 4 x 12
  EXPECT_EQ(graph.stragglers(), 1u);
  EXPECT_EQ(graph.estimate(2), 200);
}

TEST(TimelinessGraphTest, UnknownPeersAreOptimisticallyTimely) {
  adapt::TimelinessEstimator est(estimator_config());
  const adapt::TimelinessGraph empty(est);
  EXPECT_EQ(empty.known(), 0u);
  EXPECT_EQ(empty.reference(), 0);
  EXPECT_EQ(empty.classify(3), adapt::PeerClass::kUnknown);
  EXPECT_TRUE(empty.timely(3));

  est.observe(0, 5);
  const adapt::TimelinessGraph one(est);
  EXPECT_EQ(one.classify(9), adapt::PeerClass::kUnknown);  // never sampled
  EXPECT_TRUE(one.timely(9));
  EXPECT_EQ(one.estimate(9), 0);
}

TEST(TimelinessGraphTest, TwoPeersOneSlowTheSlowOneIsTheStraggler) {
  // Even count: the lower median keeps the fast peer as the reference, so
  // the slow half cannot drag the reference up and classify itself timely.
  adapt::TimelinessEstimator est(estimator_config());
  est.observe(0, 5);
  est.observe(1, 100);
  const adapt::TimelinessGraph graph(est);
  EXPECT_EQ(graph.reference(), 10);
  EXPECT_EQ(graph.classify(0), adapt::PeerClass::kTimely);
  EXPECT_EQ(graph.classify(1), adapt::PeerClass::kStraggler);
}

TEST(TimelinessGraphTest, RecoveredStragglerReclassifiesWithinOneWindow) {
  // The straggler-flip regression: a peer that was slow and turns fast
  // must classify timely as soon as its ring rolls over — the very next
  // snapshot, not some decayed average many windows later.
  adapt::TimelinessEstimator est(estimator_config());  // window 4
  est.observe(0, 5);
  est.observe(1, 6);
  for (int i = 0; i < 4; ++i) est.observe(2, 100);
  EXPECT_EQ(adapt::TimelinessGraph(est).classify(2),
            adapt::PeerClass::kStraggler);
  for (int i = 0; i < 4; ++i) est.observe(2, 6);  // one full fast window
  const adapt::TimelinessGraph after(est);
  EXPECT_EQ(after.classify(2), adapt::PeerClass::kTimely);
  EXPECT_EQ(after.stragglers(), 0u);
  // And the flip the other way: a degrading peer is caught as fast.
  for (int i = 0; i < 4; ++i) est.observe(0, 400);
  EXPECT_EQ(adapt::TimelinessGraph(est).classify(0),
            adapt::PeerClass::kStraggler);
}

// --- ManualDelta ------------------------------------------------------------

TEST(ManualDeltaTest, PinnedUntilSetAndSignalsOnlyCounted) {
  adapt::ManualDelta pinned(5);
  EXPECT_EQ(pinned.current(), 5);
  pinned.on_failure();
  pinned.on_clean();
  pinned.observe(0, 900);
  EXPECT_EQ(pinned.current(), 5);  // adaptation-free
  EXPECT_EQ(pinned.failure_events(), 1u);
  EXPECT_EQ(pinned.clean_events(), 1u);
  EXPECT_EQ(pinned.observations(), 1u);
  pinned.set(9);
  EXPECT_EQ(pinned.current(), 9);
}

// --- Aimd shared by real threads (rides the Rt* sanitizer suites) ---------

TEST(RtAdaptiveControllerTest, SharedByThreadsStaysClampedAndCounts) {
  adapt::Aimd shared({.initial = 16,
                      .floor = 2,
                      .ceiling = 256,
                      .grow_factor = 2.0,
                      .decay_step = 1,
                      .clean_threshold = 2});
  constexpr int kThreads = 4;
  constexpr int kSignals = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (int i = 0; i < kSignals; ++i) {
        if ((i + t) % 3 == 0) {
          shared.on_failure();
        } else {
          shared.on_clean();
        }
        const adapt::Duration seen = shared.current();
        // Every intermediate estimate a racing reader can observe stays
        // inside the clamp — the advisory-only contract.
        ASSERT_GE(seen, 2);
        ASSERT_LE(seen, 256);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(shared.current(), 2);
  EXPECT_LE(shared.current(), 256);
  // The relaxed counters lose nothing: every signal lands exactly once.
  EXPECT_EQ(shared.failure_events() + shared.clean_events(),
            static_cast<std::uint64_t>(kThreads) * kSignals);
}

// --- grow_saturating (msg retry windows) ------------------------------------

TEST(MsgRetrySaturationTest, GrowsGeometricallyUnderTheCap) {
  EXPECT_EQ(msg::grow_saturating(100, 2.0, 1500), 200);
  EXPECT_EQ(msg::grow_saturating(200, 2.5, 1500), 500);
}

TEST(MsgRetrySaturationTest, CapsAtMaxTimeout) {
  EXPECT_EQ(msg::grow_saturating(1000, 2.0, 1500), 1500);
  EXPECT_EQ(msg::grow_saturating(1500, 2.0, 1500), 1500);
}

TEST(MsgRetrySaturationTest, HugeGrowthCannotOverflow) {
  // Before the guard this was UB: the double product exceeds the int64
  // range and the cast back was undefined.  Now it saturates.
  const sim::Duration huge = sim::Duration{1} << 60;
  EXPECT_EQ(msg::grow_saturating(huge, 1e9, 0), sim::Duration{1} << 62);
  EXPECT_EQ(msg::grow_saturating(huge, 1e9, huge), huge);
  // An uncapped policy (max == 0) still grows normally while in range.
  EXPECT_EQ(msg::grow_saturating(100, 3.0, 0), 300);
}

TEST(MsgRetrySaturationTest, SubDoublingGrowthStillGrowsSmallValues) {
  // Truncation alone returned these inputs forever.
  EXPECT_EQ(msg::grow_saturating(1, 1.5, 0), 2);
  EXPECT_EQ(msg::grow_saturating(2, 1.5, 0), 3);
  EXPECT_EQ(msg::grow_saturating(3, 1.3, 0), 4);
  // Larger values still truncate, never round up: 10 * 1.1 is a hair
  // above 11 in double.
  EXPECT_EQ(msg::grow_saturating(10, 1.1, 0), 11);
  EXPECT_EQ(msg::grow_saturating(100, 1.5, 0), 150);
  // The +1 floor saturates at the cap like any other growth.
  EXPECT_EQ(msg::grow_saturating(4, 1.1, 5), 5);
  EXPECT_EQ(msg::grow_saturating(5, 1.1, 5), 5);
  // No growth, and nothing to grow, stay put.
  EXPECT_EQ(msg::grow_saturating(3, 1.0, 0), 3);
  EXPECT_EQ(msg::grow_saturating(0, 1.5, 0), 0);
}

// --- adaptive ABD windows: expiries are timing-failure signals --------------

namespace {

sim::Process write_once(sim::Env env, msg::AbdClient& client, int* done) {
  co_await client.write(env, /*reg=*/1, 42);
  ++*done;
}

}  // namespace

TEST(MsgAdaptiveWindowTest, ExpiryReportsFailureSignalAndRecovers) {
  // Node 0 is partitioned until t = 4000: its quorum cannot form, so the
  // estimate-derived window (100 ticks via ManualDelta) must expire at
  // least once, each expiry reported as on_failure(); after the heal the
  // write completes.
  sim::Simulation s(sim::make_fixed_timing(1), {.seed = 3});
  const int n = 3;
  msg::Network net(s.space(), 2 * n);
  msg::NetAdversary adversary(7);
  msg::Partition partition;
  partition.begin = 0;
  partition.heal = 4000;
  partition.group = {0, n + 0};  // node 0's client + server endpoints
  adversary.add_partition(partition);
  adversary.arm(s);
  net.set_adversary(&adversary);

  msg::RetryPolicy policy;
  policy.timeout = 40;
  policy.timeout_per_delta = 1.0;
  policy.max_timeout = 800;
  policy.backoff = 10;
  policy.poll_every = 5;

  adapt::ManualDelta pinned(100);
  msg::AbdClient client(net, 0, n, policy);
  client.set_delta_controller(&pinned);

  int done = 0;
  s.spawn([&client, &done](sim::Env env) {
    return write_once(env, client, &done);
  });
  for (int i = 0; i < n; ++i) {
    s.spawn(
        [&net, i, n](sim::Env env) { return msg::abd_server(env, net, i, n); });
  }
  s.run(1'000'000, [&] { return done == 1; });

  EXPECT_EQ(done, 1);
  EXPECT_GE(pinned.failure_events(), 1u);  // expiries were reported
  EXPECT_EQ(client.timeouts(), pinned.failure_events());
  // The write's tag phase straddles the partition (every window expired),
  // but its second phase starts after the heal and makes quorum inside
  // the first window — exactly one clean signal.
  EXPECT_EQ(pinned.clean_events(), 1u);
}

// --- determinism: a recorded drift run replays byte-identically -------------

obs::TimingSpec drift_spec() {
  obs::TimingSpec spec;
  spec.kind = obs::TimingSpec::Kind::kPhased;
  spec.phases = {{.start = 0, .lo = 1, .hi = 10, .ramp = true},
                 {.start = 400, .lo = 1, .hi = 80},
                 {.start = 900, .lo = 1, .hi = 10}};
  return spec;
}

/// Back-to-back consensus instances sharing one Aimd controller — the E21
/// drift harness in miniature, built fresh on each invocation so record
/// and replay see identical state.
obs::Scenario adaptive_scenario() {
  return [](sim::Simulation& simulation) {
    auto controller = std::make_shared<adapt::Aimd>(
        adapt::AimdConfig{.initial = 1,
                          .floor = 1,
                          .ceiling = 100,
                          .grow_factor = 2.0,
                          .decay_step = 1,
                          .clean_threshold = 2});
    for (int instance = 0; instance < 4; ++instance) {
      auto consensus = std::make_shared<core::SimConsensus>(simulation.space(),
                                                            /*delta=*/100);
      consensus->set_delta_controller(controller.get());
      consensus->monitor().set_trace_sink(simulation.trace_sink());
      for (int input : {0, 1}) {
        simulation.spawn(
            [consensus, input](sim::Env env) {
              return consensus->participant(env, input);
            },
            /*start=*/simulation.now());
      }
      simulation.run();  // to idle: the instance is complete
    }
  };
}

TEST(AdaptDeterminismTest, PhasedSpecSurvivesTheByteRoundTrip) {
  obs::RecordedRun run;
  run.seed = 77;
  run.timing = drift_spec();
  run.trace = "not-a-real-trace";
  const std::optional<obs::RecordedRun> back =
      obs::RecordedRun::from_bytes(run.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, 77u);
  ASSERT_EQ(back->timing.kind, obs::TimingSpec::Kind::kPhased);
  ASSERT_EQ(back->timing.phases.size(), 3u);
  EXPECT_EQ(back->timing.phases[0].hi, 10);
  EXPECT_TRUE(back->timing.phases[0].ramp);
  EXPECT_EQ(back->timing.phases[1].start, 400);
  EXPECT_EQ(back->timing.phases[1].hi, 80);
  EXPECT_FALSE(back->timing.phases[2].ramp);
  EXPECT_EQ(back->trace, run.trace);
}

TEST(AdaptDeterminismTest, SameSeedDriftRunReplaysByteIdentical) {
  const obs::RecordedRun run =
      obs::record(/*seed=*/5, drift_spec(), adaptive_scenario());
  EXPECT_FALSE(run.trace.empty());
  const obs::ReplayResult again = obs::replay(run, adaptive_scenario());
  EXPECT_TRUE(again.identical);

  // A different drift (same seed) must diverge — the phases are load-
  // bearing, not decorative.
  obs::TimingSpec other = drift_spec();
  other.phases[1].hi = 81;
  EXPECT_NE(obs::record(5, other, adaptive_scenario()).trace, run.trace);
}

}  // namespace
}  // namespace tfr
