// Unit tests for the shard-scale service scenario (src/service/): the
// bounded queue's reject/retry-after contract, the batcher's
// size-or-deadline flush policy, the load generator's retry-storm
// amplification bound, the end-to-end scenario (steady / saturated /
// partial outage), and same-seed byte-identical trace replay of an
// E20-smoke-shaped run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/service/batcher.hpp"
#include "tfr/service/loadgen.hpp"
#include "tfr/service/queue.hpp"
#include "tfr/service/service.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr {
namespace {

// --- BoundedQueue -----------------------------------------------------

TEST(ServiceQueue, AdmitsUntilCapacityThenRejectsWithRetryAfter) {
  service::BoundedQueue queue(3, /*drain_hint=*/10);
  for (std::uint64_t i = 0; i < 3; ++i) {
    service::Request request;
    request.session = i;
    EXPECT_FALSE(queue.try_push(request, /*now=*/100 + sim::Time(i)));
  }
  EXPECT_EQ(queue.size(), 3u);

  service::Request overflow;
  overflow.session = 99;
  const auto verdict = queue.try_push(overflow, 200);
  ASSERT_TRUE(verdict.has_value());
  // Retry-after scales with the backlog the client would queue behind.
  EXPECT_EQ(verdict->retry_after, 10 * 3);

  EXPECT_EQ(queue.offered(), 4u);
  EXPECT_EQ(queue.admitted(), 3u);
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_EQ(queue.max_depth(), 3u);
}

TEST(ServiceQueue, PopPreservesFifoOrderAndAdmissionStamps) {
  service::BoundedQueue queue(8, 1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    service::Request request;
    request.session = i;
    request.first_offered = 7;
    queue.try_push(request, /*now=*/sim::Time(10 + i));
  }
  EXPECT_EQ(queue.oldest_admitted(), 10);

  std::vector<service::Request> out;
  EXPECT_EQ(queue.pop_into(out, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].session, i);
    EXPECT_EQ(out[i].admitted, sim::Time(10 + i));
    EXPECT_EQ(out[i].first_offered, 7);  // latency anchor survives
  }
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.oldest_admitted(), 13);
  EXPECT_EQ(queue.pop_into(out, 10), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.oldest_admitted(), -1);
}

// --- Batcher ----------------------------------------------------------

TEST(ServiceBatcher, FlushesOnSize) {
  service::BoundedQueue queue(16, 1);
  service::Batcher batcher({.max_batch = 4, .max_wait = 1'000});
  for (std::uint64_t i = 0; i < 6; ++i) {
    service::Request request;
    request.session = i;
    queue.try_push(request, 0);
  }
  batcher.fill_from(queue);
  EXPECT_EQ(batcher.size(), 4u);  // capped at max_batch
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(batcher.should_flush(/*now=*/0));  // full: no deadline needed

  const auto batch = batcher.take();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batcher.size_flushes(), 1u);
  EXPECT_EQ(batcher.deadline_flushes(), 0u);

  batcher.fill_from(queue);
  EXPECT_EQ(batcher.size(), 2u);
  EXPECT_FALSE(batcher.should_flush(0));  // partial and fresh: hold
}

TEST(ServiceBatcher, FlushesPartialBatchOnDeadline) {
  service::BoundedQueue queue(16, 1);
  service::Batcher batcher({.max_batch = 4, .max_wait = 100});
  service::Request request;
  queue.try_push(request, /*now=*/50);
  batcher.fill_from(queue);

  EXPECT_FALSE(batcher.should_flush(149));  // oldest admitted at 50
  EXPECT_TRUE(batcher.should_flush(150));   // 100 ticks waited: flush
  EXPECT_EQ(batcher.oldest_admitted(), 50);

  const auto batch = batcher.take();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batcher.size_flushes(), 0u);
  EXPECT_EQ(batcher.deadline_flushes(), 1u);
  EXPECT_TRUE(batcher.empty());
  EXPECT_FALSE(batcher.should_flush(1'000));  // empty never flushes
}

// --- LoadGen (driven inside a real simulation) ------------------------

service::LoadConfig storm_load(std::uint64_t sessions, double rate,
                               int max_attempts) {
  service::LoadConfig load;
  load.sessions = sessions;
  load.arrivals_per_tick = rate;
  load.tick = 10;
  load.retry.backoff = 20;
  load.retry.backoff_growth = 2.0;
  load.retry.max_backoff = 200;
  load.retry.jitter = 5;
  load.max_attempts = max_attempts;
  load.route_seed = 3;
  return load;
}

TEST(ServiceLoadGen, AmplificationStaysWithinMaxAttemptsBound) {
  // Nobody drains the queue: every session is offered, bounced, retried
  // and finally shed — the worst-case retry storm.  Amplification must
  // saturate at exactly max_attempts offers per session.
  sim::Simulation s(sim::make_uniform_timing(1, 10), {.seed = 5});
  service::BoundedQueue queue(4, 10);  // fills instantly, never drained
  service::LoadGen gen(storm_load(500, 2.0, 4), {&queue});
  s.spawn([&gen](sim::Env env) { return gen.run(env); });
  s.run(100'000'000, [&gen] { return gen.finished(); });

  ASSERT_TRUE(gen.finished());
  EXPECT_EQ(gen.sessions_started(), 500u);
  EXPECT_EQ(gen.admitted(), 4u);          // the queue's capacity, once
  EXPECT_EQ(gen.shed(), 496u);            // everyone else is shed...
  EXPECT_EQ(gen.offered_pushes(), 4u + 496u * 4u);  // ...after 4 offers
  EXPECT_DOUBLE_EQ(gen.amplification(),
                   static_cast<double>(gen.offered_pushes()) / 500.0);
  EXPECT_LE(gen.amplification(), 4.0);    // the bound, by construction
  EXPECT_GT(gen.amplification(), 1.0);    // and the storm was real
}

TEST(ServiceLoadGen, AdmitsEverythingWhenQueueHasRoom) {
  sim::Simulation s(sim::make_uniform_timing(1, 10), {.seed = 5});
  service::BoundedQueue queue(1'000, 10);
  service::LoadGen gen(storm_load(600, 1.5, 4), {&queue});
  s.spawn([&gen](sim::Env env) { return gen.run(env); });
  s.run(100'000'000, [&gen] { return gen.finished(); });

  ASSERT_TRUE(gen.finished());
  EXPECT_EQ(gen.admitted(), 600u);
  EXPECT_EQ(gen.rejected(), 0u);
  EXPECT_EQ(gen.shed(), 0u);
  EXPECT_DOUBLE_EQ(gen.amplification(), 1.0);
  EXPECT_EQ(queue.size(), 600u);
}

TEST(ServiceLoadGen, RetryBackoffSaturatesInsteadOfOverflowing) {
  msg::RetryPolicy policy;
  policy.backoff = 20;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 0;  // uncapped: 20 * 2^79 would overflow a Duration
  sim::Duration previous = 0;
  for (int attempt = 1; attempt <= 80; ++attempt) {
    const sim::Duration pause = service::retry_backoff(policy, 7, attempt);
    EXPECT_GE(pause, 0) << "attempt " << attempt;
    EXPECT_GE(pause, previous) << "attempt " << attempt;
    previous = pause;
  }
  EXPECT_EQ(service::retry_backoff(policy, 7, 3), 80);
  // A configured cap still bounds the pause; jitter stays within its band.
  policy.max_backoff = 200;
  policy.jitter = 5;
  const sim::Duration first = service::retry_backoff(policy, 7, 1);
  EXPECT_GE(first, 20);
  EXPECT_LE(first, 25);
  for (int attempt = 5; attempt <= 80; ++attempt) {
    const sim::Duration pause = service::retry_backoff(policy, 7, attempt);
    EXPECT_GE(pause, 200) << "attempt " << attempt;
    EXPECT_LE(pause, 205) << "attempt " << attempt;
  }
}

TEST(ServiceLoadGen, SubDoublingBackoffRisesStrictlyToTheCap) {
  msg::RetryPolicy policy;
  policy.backoff = 1;
  policy.backoff_growth = 1.5;
  policy.max_backoff = 50;
  sim::Duration previous = 0;
  int attempt = 1;
  for (; previous < policy.max_backoff; ++attempt) {
    ASSERT_LE(attempt, 64) << "backoff stalled at " << previous;
    const sim::Duration pause = service::retry_backoff(policy, 7, attempt);
    EXPECT_GT(pause, previous) << "attempt " << attempt;
    previous = pause;
  }
  EXPECT_EQ(previous, 50);
  EXPECT_EQ(service::retry_backoff(policy, 7, attempt + 5), 50);
}

// --- End-to-end scenario ----------------------------------------------

msg::RetryPolicy test_retry() {
  msg::RetryPolicy policy;
  policy.timeout = 2'000;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 16'000;
  policy.backoff = 100;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 2'000;
  policy.jitter = 50;
  policy.poll_every = 5;
  return policy;
}

/// A scaled-down E20-smoke-shaped config: 2 shards x 3 replicas.
service::ServiceConfig small_config(std::uint64_t sessions) {
  service::ServiceConfig config;
  config.shards = 2;
  config.step = 50;
  config.sim_seed = 9;
  config.shard.replicas = 3;
  config.shard.delta = 50;
  config.shard.abd_retry = test_retry();
  config.shard.batch.max_batch = 64;
  config.shard.batch.max_wait = 200;
  config.shard.queue_capacity = 256;
  config.shard.drain_hint = 8;
  config.shard.poll_every = 50;
  config.load.sessions = sessions;
  // One batch costs ~1000 ticks of quorum time, so 2 shards x 64-request
  // batches give ~0.128 sessions/tick of capacity; 0.08 is ~60% load.
  config.load.arrivals_per_tick = 0.08;
  config.load.tick = 50;
  config.load.retry = test_retry();
  config.load.max_attempts = 6;
  config.load.route_seed = 11;
  return config;
}

TEST(ServiceScenario, ServesEverySessionBelowSaturation) {
  const service::ServiceReport report =
      service::run_service(small_config(5'000));
  EXPECT_TRUE(report.all_elected);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.served, 5'000u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_DOUBLE_EQ(report.amplification, 1.0);
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_EQ(report.readback_mismatches, 0u);
  EXPECT_EQ(report.unfinished, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(report.latency.count()), 5'000u);
  // Batching amortises: far fewer quorum ops than sessions.
  EXPECT_LT(report.abd_operations, report.served / 4);
  EXPECT_EQ(report.lost_wakeups, 0u);
}

TEST(ServiceScenario, OutageBacksUpThenDrainsWithinBound) {
  service::ServiceConfig config = small_config(4'000);
  config.shard.queue_capacity = 64;
  config.outage.shards = {1};
  config.outage.begin = 2'000;
  config.outage.heal = 30'000;
  config.convergence_bound = 50'000;
  const service::ServiceReport report = service::run_service(config);

  EXPECT_TRUE(report.all_elected);
  EXPECT_TRUE(report.complete());
  EXPECT_GT(report.rejected, 0u);       // the cut shard pushed back
  EXPECT_GT(report.served, 0u);
  EXPECT_TRUE(report.linearizable);     // safety holds through the cut
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_TRUE(report.converged);        // stalled ops finish within bound
  EXPECT_EQ(report.unfinished, 0u);
  EXPECT_GE(report.heal_drain, 0);      // the backlog was worked off...
  EXPECT_LE(report.heal_drain, config.convergence_bound);  // ...in time
  EXPECT_EQ(report.lost_wakeups, 0u);
}

TEST(ServiceScenario, DefaultShardReadsTakeTheFastPath) {
  const service::ServiceReport report =
      service::run_service(small_config(2'000));
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.served, 2'000u);
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_EQ(report.readback_mismatches, 0u);
  EXPECT_GT(report.abd_fast_reads, 0u);
}

TEST(ServiceScenario, ReplicaFaultsAndPerPeerWindowsBehindTheSeam) {
  // One slow replica box behind shard 0 and 1; the shards share a
  // timeliness estimator, so per-replica RTT observations (including the
  // straggler's late acks) must flow through the Shard seam into it.
  service::ServiceConfig config = small_config(2'000);
  adapt::TimelinessEstimator estimator({.initial = 100,
                                        .floor = 50,
                                        .ceiling = 16'000,
                                        .window = 32,
                                        .quantile = 0.9,
                                        .headroom = 2.0,
                                        .grow_factor = 2.0,
                                        .decay_step = 50,
                                        .clean_threshold = 2,
                                        .boost_cap = 2.0});
  config.shard.controller = &estimator;
  config.shard.abd_retry.timeout_per_delta = 2.0;
  msg::ChannelFaults slow;
  slow.delay = 1.0;
  slow.delay_min = 2'000;
  slow.delay_max = 3'000;
  config.shard.replica_faults.push_back({.replica = 1, .faults = slow});
  const service::ServiceReport report = service::run_service(config);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.linearizable);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_GT(report.abd_fast_reads, 0u);
  EXPECT_GT(estimator.observations(), 0u);  // per-replica RTTs arrived
  EXPECT_GT(estimator.channels(), 1u);      // ...keyed by replica index
}

// --- Boot: per-shard leaders ------------------------------------------

/// The shard shape of the wall-clock benchmark's service workloads
/// (bench/perf/service.cpp): E20's base configuration at seed 1, 4 shards
/// x 3 replicas; `degraded` adds one slow and one lossy replica per shard.
service::ServiceConfig perf_shape(bool degraded) {
  constexpr sim::Duration kStep = 50;
  msg::RetryPolicy policy;
  policy.timeout = 40 * kStep;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 320 * kStep;
  policy.backoff = 2 * kStep;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 40 * kStep;
  policy.jitter = kStep;
  policy.poll_every = 5;
  service::ServiceConfig config;
  config.shards = 4;
  config.step = kStep;
  config.sim_seed = 1;
  config.shard.replicas = 3;
  config.shard.delta = kStep;
  config.shard.abd_retry = policy;
  config.shard.batch.max_batch = 256;
  config.shard.batch.max_wait = 4 * kStep;
  config.shard.queue_capacity = degraded ? 512 : 4096;
  config.shard.drain_hint = 8;
  config.shard.poll_every = kStep;
  if (degraded) {
    msg::ChannelFaults slow;
    slow.delay = 1.0;
    slow.delay_min = 40 * kStep;
    slow.delay_max = 60 * kStep;
    msg::ChannelFaults lossy;
    lossy.drop = 0.30;
    config.shard.replica_faults.push_back({.replica = 1, .faults = slow});
    config.shard.replica_faults.push_back({.replica = 2, .faults = lossy});
  }
  return config;
}

/// Boots `config`'s shards as run_service does and returns each shard's
/// elected leader (-1 if it never elected one).
std::vector<int> boot_leaders(const service::ServiceConfig& config) {
  sim::Simulation s(sim::make_uniform_timing(1, config.step),
                    {.seed = config.sim_seed});
  std::vector<std::unique_ptr<service::Shard>> shards;
  for (int k = 0; k < config.shards; ++k) {
    service::ShardConfig sc = config.shard;
    sc.id = k;
    shards.push_back(std::make_unique<service::Shard>(s, sc));
    shards.back()->spawn([](const service::Request&, sim::Time) {});
  }
  s.run_until(config.limit, [&shards] {
    return std::all_of(shards.begin(), shards.end(),
                       [](const auto& shard) { return shard->elected(); });
  });
  std::vector<int> leaders;
  for (const auto& shard : shards) leaders.push_back(shard->leader());
  return leaders;
}

// The boot election picks the replica each shard's load runs through and
// the one an outage cuts.  These leaders were captured when the election
// still agreed on ten id bits; agreeing on bit_width(n - 1) bits shifts
// the boot's timing but must keep both workloads on the same replicas.
TEST(ServiceBoot, BenchmarkShapesElectPinnedLeaders) {
  EXPECT_EQ(boot_leaders(perf_shape(false)), (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(boot_leaders(perf_shape(true)), (std::vector<int>{0, 0, 2, 0}));
}

// --- Determinism ------------------------------------------------------

TEST(ServiceDeterminism, SameSeedReplaysByteIdentical) {
  std::vector<obs::Event> first;
  std::vector<std::string> first_labels;
  for (int run = 0; run < 2; ++run) {
    obs::TraceSink sink;
    service::ServiceConfig config = small_config(2'000);
    config.sink = &sink;
    const service::ServiceReport report = service::run_service(config);
    EXPECT_TRUE(report.complete());
    EXPECT_GT(sink.size(), 0u);
    if (run == 0) {
      first = sink.snapshot();
      first_labels = sink.labels();
    } else {
      EXPECT_EQ(first, sink.snapshot());  // byte-identical event stream
      EXPECT_EQ(first_labels, sink.labels());
    }
  }
}

// Golden pin: the traced run above hashes to a constant, so a change to
// the simulator's same-instant order fails here even though both runs of
// one binary would still agree.  A change to what the run does (such as
// how many id bits the boot election agrees on, or idle receivers parking
// instead of sweeping again) re-captures it.
TEST(ServiceDeterminism, TracedRunMatchesGoldenHash) {
  obs::TraceSink sink;
  service::ServiceConfig config = small_config(2'000);
  config.sink = &sink;
  const service::ServiceReport report = service::run_service(config);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(sink.hash(), 0x6c3cd19c5a800cc5ULL);
  EXPECT_EQ(sink.size(), 15743u);
}

TEST(ServiceDeterminism, DifferentSeedsDiverge) {
  obs::TraceSink sink_a;
  obs::TraceSink sink_b;
  service::ServiceConfig config = small_config(2'000);
  config.sink = &sink_a;
  service::run_service(config);
  config.sim_seed = 10;
  config.sink = &sink_b;
  service::run_service(config);
  EXPECT_NE(sink_a.snapshot(), sink_b.snapshot());
}

}  // namespace
}  // namespace tfr
