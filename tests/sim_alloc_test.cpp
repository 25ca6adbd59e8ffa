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
#include <optional>
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
// outside the measured windows.  Every delete frees through one helper
// that is never inlined: a free() the compiler can see pairing with a
// new-expression draws -Wmismatched-new-delete.
namespace {

[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { free_block(p); }
void operator delete[](void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete[](void* p, std::size_t) noexcept { free_block(p); }

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
                             sim::SimulationOptions{.seed = 1});
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

/// Delays of up to 400 ticks, most of them beyond the event queue's
/// 64-instant ring, so every run fills the overflow heap and drains it
/// into the ring's slots.
sim::Process far_sleeper(sim::Env env, sim::Register<int>& reg, int id) {
  for (int i = 0; i < 24; ++i) {
    const int seen = co_await env.read(reg);
    co_await env.delay((seen * 37 + id * 11 + i * 53) % 400);
    co_await env.write(reg, (seen + id + i) % 1000);
  }
}

// The event queue's node pool (which also holds the overflow heap)
// survives reset(): once a warm-up run has sized it, running the same
// scenario again makes no allocation at all between the first and the
// last event.
TEST(SimAllocRegression, OverflowingDelaysReachZeroRunAllocations) {
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                             sim::SimulationOptions{.seed = 1});
  auto run_allocations = [&simulation] {
    simulation.reset(1);
    sim::Register<int> reg(simulation.space(), 0, "r");
    for (int p = 0; p < 6; ++p)
      simulation.spawn(
          [&reg, p](sim::Env env) { return far_sleeper(env, reg, p); });
    for (int c = 0; c < 8; ++c) simulation.schedule_callback(c * 150, [] {});
    // Mid-run burst: more pending events than were queued before the
    // measured window opens, so a queue that dropped its node pool at
    // reset() would have to grow it again inside the window.
    simulation.schedule_callback(10, [&simulation] {
      for (int k = 0; k < 40; ++k)
        simulation.schedule_callback(simulation.now() + (k * 29) % 300,
                                     [] {});
    });
    const std::uint64_t before =
        g_alloc_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
    return g_alloc_calls.load(std::memory_order_relaxed) - before;
  };
  run_allocations();  // warm-up: sizes the pool, heap and trace
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(run_allocations(), 0u) << "iteration " << i;
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
  // coroutine frames of one write and one fast read: one frame per receive
  // call, not one per polling sweep.  A per-message heap name, RMR bit
  // vector, container node or per-sweep frame would lift the ceiling or
  // break the band; so would cumulative growth.
  constexpr std::uint64_t kSteadyAllocsPerOp = 62;
  for (int i = 2; i < kOps; ++i) {
    EXPECT_EQ(per_op[static_cast<std::size_t>(i)], per_op[2]) << "op " << i;
    EXPECT_LE(per_op[static_cast<std::size_t>(i)], kSteadyAllocsPerOp)
        << "op " << i;
  }
  EXPECT_LE(per_op[2], per_op[0]) << "warm-up should dominate steady state";
}

// --- Channel storage: a long exchange reuses its slot chunks ---------------

sim::Process paced_sender(sim::Env env, msg::Network& net, int count) {
  for (int k = 0; k < count; ++k) {
    msg::Message m;
    m.value = k;
    co_await net.send(env, 0, 1, m);
    co_await env.delay(5);
  }
}

/// Receives `count` messages, recording the operator-new call count after
/// each into `after` (pre-reserved, so the record itself never allocates).
sim::Process alloc_recording_receiver(sim::Env env, msg::Network& net,
                                      int count,
                                      std::vector<std::uint64_t>& after) {
  for (int k = 0; k < count; ++k) {
    co_await net.recv(env, 1);
    after.push_back(g_alloc_calls.load(std::memory_order_relaxed));
  }
}

// The receiver releases each slot chunk once it has read it, and the next
// chunk reuses that storage, so after the first chunks every message of a
// long exchange costs exactly its coroutine frames (one send, one receive
// call) — flat across all 30 chunk boundaries, not one chunk per 64
// messages.
TEST(SimAllocRegression, LongChannelExchangeAllocatesNoSlotStorage) {
  constexpr int kMessages = 2'000;
  constexpr int kWarmup = 200;
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                             sim::SimulationOptions{.seed = 2});
  msg::Network net(simulation.space(), 2);
  std::vector<std::uint64_t> after;
  after.reserve(kMessages);
  simulation.spawn([&net, &after](sim::Env env) {
    return alloc_recording_receiver(env, net, kMessages, after);
  });
  simulation.spawn(
      [&net](sim::Env env) { return paced_sender(env, net, kMessages); });
  EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
  ASSERT_EQ(after.size(), static_cast<std::size_t>(kMessages));
  const std::uint64_t per_message = after[kWarmup] - after[kWarmup - 1];
  for (int k = kWarmup; k < kMessages; ++k) {
    const auto i = static_cast<std::size_t>(k);
    ASSERT_EQ(after[i] - after[i - 1], per_message) << "message " << k;
  }
  EXPECT_LE(per_message, 3u);
  EXPECT_LE(net.live_slot_chunks(0, 1), 1u);
}

// --- Network receive loop: idle receivers park, allocating nothing --------

sim::Process idle_receiver(sim::Env env, msg::Network& net, bool paced,
                           std::int64_t* got) {
  if (paced) {
    const std::optional<msg::Message> m =
        co_await net.recv_until(env, 0, sim::kTimeNever, 3);
    *got = m.has_value() ? m->value : -1;
  } else {
    const msg::Message m = co_await net.recv(env, 0);
    *got = m.value;
  }
}

sim::Process late_sender(sim::Env env, msg::Network& net, sim::Duration at) {
  co_await env.delay(at);
  msg::Message m;
  m.value = 7;
  co_await net.send(env, 1, 0, m);
}

// A receive call allocates its coroutine frame once.  An idle receiver,
// recv's and recv_until's alike, sweeps its 4 inbound tails once and
// parks: however long it idles it reads nothing more and allocates
// nothing, and the send wakes it into one sweep that starts at the
// sender's tail (2 reads: the tail, the slot).
TEST(SimAllocRegression, IdleReceiveSweepsAllocateNothing) {
  for (const bool paced : {false, true}) {
    SCOPED_TRACE(paced ? "recv_until" : "recv");
    sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                               sim::SimulationOptions{.seed = 3});
    msg::Network net(simulation.space(), 4);
    std::int64_t got = 0;
    simulation.spawn([&net, paced, &got](sim::Env env) {
      return idle_receiver(env, net, paced, &got);
    });
    simulation.spawn(
        [&net](sim::Env env) { return late_sender(env, net, 20'000); });
    simulation.run(100);  // warm-up: frames, the first sweep, event pool
    EXPECT_EQ(simulation.stats(0).reads, 4u);
    const std::uint64_t before =
        g_alloc_calls.load(std::memory_order_relaxed);
    simulation.run(19'000);  // parked throughout
    EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_EQ(simulation.stats(0).reads, 4u);
    EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
    EXPECT_EQ(got, 7);
    EXPECT_EQ(simulation.stats(0).reads, 6u);
    EXPECT_EQ(net.lost_wakeups(), 0u);
  }
}

// Servers with no clients: each of the n = 3 ABD servers sweeps its 6
// inbound tails once and parks with no deadline, so the run goes Idle at
// the end of that sweep — before parking, it spun forever — and nothing
// allocates after the servers' first step.
TEST(SimAllocRegression, IdleAbdServersParkAfterOneSweep) {
  constexpr int kNodes = 3;
  sim::Simulation simulation(std::make_unique<sim::FixedTiming>(1),
                             sim::SimulationOptions{.seed = 3});
  msg::Network net(simulation.space(), 2 * kNodes);
  for (int node = 0; node < kNodes; ++node) {
    simulation.spawn([&net, node](sim::Env env) {
      return msg::abd_server(env, net, node, kNodes);
    });
  }
  simulation.run(0);  // first steps: process and receive frames
  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(simulation.run(), sim::Simulation::RunResult::Idle);
  EXPECT_EQ(simulation.run(1'000'000), sim::Simulation::RunResult::Idle);
  EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(simulation.now(), 2 * kNodes);
  for (sim::Pid pid = 0; pid < kNodes; ++pid) {
    EXPECT_EQ(simulation.stats(pid).reads, 2u * kNodes) << "server " << pid;
    EXPECT_FALSE(simulation.stats(pid).done());
  }
  EXPECT_EQ(net.lost_wakeups(), 0u);
}

}  // namespace
}  // namespace tfr
