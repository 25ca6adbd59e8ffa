// Steady-state allocation regression for the Simulation::reset() fast
// path.  mcheck re-executes one scenario hundreds of thousands of times;
// the whole point of reset() (vs. reconstructing the Simulation) is that
// event-queue storage, per-process stat vectors, the linearization trace
// buffer and the strategy scratch vectors are *reused*.  This test counts
// global operator new calls per reset+rerun iteration: after a warm-up
// run every iteration must allocate exactly the same (small) amount — the
// unavoidable per-spawn coroutine frames — or someone reintroduced
// per-event churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};

}  // namespace

// Counting overrides for the whole test binary.  Deliberately minimal:
// route through malloc/free and count calls; gtest's own allocations are
// outside the measured windows.
void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tfr {
namespace {

sim::Process ping_pong(sim::Env env, sim::Register<int>& mine,
                       sim::Register<int>& theirs, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int seen = co_await env.read(theirs);
    co_await env.write(mine, seen + 1);
    co_await env.delay(1);
  }
}

/// One reset+rerun iteration; returns how many operator new calls it made.
std::uint64_t run_iteration(sim::Simulation& simulation) {
  const std::uint64_t before =
      g_alloc_calls.load(std::memory_order_relaxed);
  simulation.reset(1);
  sim::Register<int> a(simulation.space(), 0, "a");
  sim::Register<int> b(simulation.space(), 0, "b");
  simulation.spawn(
      [&](sim::Env env) { return ping_pong(env, a, b, /*rounds=*/8); });
  simulation.spawn(
      [&](sim::Env env) { return ping_pong(env, b, a, /*rounds=*/8); });
  EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
  return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

// FIFO tie-breaks (no strategy): the default event loop must reach an
// allocation steady state — the only per-iteration allocations are the
// two coroutine frames the scenario itself spawns.
TEST(SimAllocRegression, ResetReachesSteadyState) {
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                             sim::SimulationOptions{.seed = 1, .trace = true});
  const std::uint64_t warmup = run_iteration(simulation);
  const std::uint64_t steady = run_iteration(simulation);
  EXPECT_LE(steady, warmup);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run_iteration(simulation), steady) << "iteration " << i;
  }
  // Two spawns → two coroutine frames; a small slack tolerates frame-size
  // bookkeeping differences across compilers, but per-event or per-step
  // churn (dozens of events per run) would blow well past it.
  EXPECT_LE(steady, 8u);
}

/// Strategy that always picks the first enabled option — enough to force
/// the event loop through the strategy-driven path (pop_next_event and
/// its scratch vectors) instead of the FIFO fast path.
class PickFirst final : public sim::SchedulerStrategy {
 public:
  std::size_t pick(sim::Time,
                   const std::vector<sim::EnabledEvent>&) override {
    return 0;
  }
};

// Strategy-driven tie-breaks (the mcheck replay loop): the per-pick
// ready/options scratch must be pooled, not rebuilt — same steady-state
// requirement as the FIFO path.
TEST(SimAllocRegression, StrategyPathReachesSteadyState) {
  PickFirst strategy;
  sim::SimulationOptions options;
  options.seed = 1;
  options.strategy = &strategy;
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1), options);
  const std::uint64_t warmup = run_iteration(simulation);
  const std::uint64_t steady = run_iteration(simulation);
  EXPECT_LE(steady, warmup);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run_iteration(simulation), steady) << "iteration " << i;
  }
  EXPECT_LE(steady, 8u);
}

// --- ABD phase scratch: per-op allocations reach a steady state --------------

/// Runs `ops` write+read pairs on one per-peer fast-read client, recording
/// the operator-new call count after each op into `per_op` (pre-reserved:
/// the measurement itself must not allocate inside the window).
sim::Process abd_alloc_probe(sim::Env env, msg::AbdClient& client, int ops,
                             std::vector<std::uint64_t>& per_op, int* done) {
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t before =
        g_alloc_calls.load(std::memory_order_relaxed);
    co_await client.write(env, /*reg=*/1, i);
    co_await client.read(env, 1);
    per_op.push_back(g_alloc_calls.load(std::memory_order_relaxed) - before);
  }
  *done = 1;
}

// The quorum loop's ack-dedup array, the per-peer window order statistic
// and the late-ack ring are all client-owned reusable scratch, and channel
// slots are built in place in fixed chunks: after the warm-up ops (which
// size the scratch, fill the estimator's channel rings, grow the network
// queues and allocate each channel's first slot chunk) every op makes
// exactly the same, bounded number of allocations — only the coroutine
// frames.
TEST(SimAllocRegression, AbdPhasesReachSteadyStatePerOperation) {
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                             sim::SimulationOptions{.seed = 5});
  const int n = 3;
  msg::Network net(simulation.space(), 2 * n);
  adapt::TimelinessEstimator estimator({.initial = 8,
                                        .floor = 1,
                                        .ceiling = 4096,
                                        .window = 8,
                                        .quantile = 1.0,
                                        .headroom = 2.0,
                                        .grow_factor = 2.0,
                                        .decay_step = 1,
                                        .clean_threshold = 2});
  msg::RetryPolicy policy;
  policy.timeout = 64;
  policy.max_timeout = 4096;
  policy.poll_every = 4;
  policy.timeout_per_delta = 2.0;
  msg::AbdClient client(net, 0, n, policy);
  client.set_delta_controller(&estimator);
  constexpr int kOps = 16;
  std::vector<std::uint64_t> per_op;
  per_op.reserve(kOps);
  int done = 0;
  simulation.spawn([&](sim::Env env) {
    return abd_alloc_probe(env, client, kOps, per_op, &done);
  });
  for (int i = 1; i < n; ++i) {
    simulation.spawn([](sim::Env env) -> sim::Process { co_await env.delay(1); });
  }
  for (int i = 0; i < n; ++i) {
    simulation.spawn(
        [&net, i, n](sim::Env env) { return msg::abd_server(env, net, i, n); });
  }
  simulation.run(10'000'000, [&] { return done == 1; });
  ASSERT_EQ(done, 1);
  ASSERT_EQ(per_op.size(), static_cast<std::size_t>(kOps));
  // Every read takes the fast path: no write-back round varies the
  // protocol shape, so nothing may vary the per-op count either.
  EXPECT_EQ(client.fast_reads(), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(client.fast_read_misses(), 0u);
  // After warm-up (ops 0 and 1) the count is flat — a band of 0 — at the
  // coroutine frames of one write and one fast read.  A per-message heap
  // name, RMR bit vector or container node would lift the ceiling or
  // break the band; so would cumulative growth.
  constexpr std::uint64_t kSteadyAllocsPerOp = 80;
  for (int i = 2; i < kOps; ++i) {
    EXPECT_EQ(per_op[static_cast<std::size_t>(i)], per_op[2]) << "op " << i;
    EXPECT_LE(per_op[static_cast<std::size_t>(i)], kSteadyAllocsPerOp)
        << "op " << i;
  }
  EXPECT_LE(per_op[2], per_op[0]) << "warm-up should dominate steady state";
}

// Eviction bounds the estimator's channel map: a service folding
// thousands of transient pids into channels must not grow it without
// bound, and the recurring channel's history must survive the sweeps.
TEST(SimAllocRegression, EstimatorEvictionBoundsTheChannelMap) {
  adapt::TimelinessEstimator est({.initial = 4,
                                  .floor = 1,
                                  .ceiling = 1024,
                                  .window = 8,
                                  .quantile = 1.0,
                                  .headroom = 2.0,
                                  .grow_factor = 2.0,
                                  .decay_step = 1,
                                  .clean_threshold = 2,
                                  .evict_after_windows = 1});
  for (int pid = 0; pid < 10'000; ++pid) {
    est.observe(/*channel=*/100 + pid, 5);  // transient: one sample, gone
    est.observe(/*channel=*/0, 7);          // recurring: always fresh
  }
  // Horizon = 1 window = 8 observations; sweeps run every 8 observations,
  // so at most ~2 windows of transient channels are resident at once.
  EXPECT_LE(est.channels(), 18u);
  EXPECT_GT(est.evictions(), 9'900u);
  EXPECT_EQ(est.channel_quantile(0), 7);  // the recurring channel survived
  EXPECT_EQ(est.current(), 14);
}

}  // namespace
}  // namespace tfr
