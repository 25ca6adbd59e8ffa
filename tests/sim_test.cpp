// Tests for the simulator substrate: event ordering, timing semantics,
// failure injection, crashes, registers, tasks, monitors, determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/sim/event_queue.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::sim {
namespace {

struct Cell {
  Register<int> reg;
  explicit Cell(RegisterSpace& space, int init = 0) : reg(space, init) {}
};

Process writer_process(Env env, Register<int>& reg, int value, int times) {
  for (int i = 0; i < times; ++i) co_await env.write(reg, value + i);
}

TEST(Simulation, AccessTakesConfiguredTime) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 5, 3); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(s.now(), 30);  // three accesses, 10 ticks each
  EXPECT_EQ(c.reg.peek(), 7);
  EXPECT_EQ(s.stats(0).writes, 3u);
  EXPECT_EQ(s.stats(0).done_at, 30);
}

Process delayer(Env env, Duration d) {
  co_await env.delay(d);
}

TEST(Simulation, DelayTakesExactlyD) {
  Simulation s(make_fixed_timing(10));
  s.spawn([&](Env env) { return delayer(env, 123); });
  s.run();
  EXPECT_EQ(s.now(), 123);
  EXPECT_EQ(s.stats(0).delays, 1u);
  EXPECT_EQ(s.stats(0).delay_time, 123);
}

TEST(Simulation, StartTimeOffsetsFirstStep) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 1, 1); },
          /*start=*/100);
  s.run();
  EXPECT_EQ(s.now(), 110);
}

TEST(Simulation, TimeLimitPausesAndResumes) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 10); });
  EXPECT_EQ(s.run(45), Simulation::RunResult::TimeLimit);
  EXPECT_EQ(s.stats(0).writes, 4u);
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(s.stats(0).writes, 10u);
}

TEST(Simulation, StopPredicate) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 100); });
  const auto result =
      s.run(kTimeNever, [&] { return s.stats(0).writes >= 5; });
  EXPECT_EQ(result, Simulation::RunResult::Stopped);
  EXPECT_EQ(s.stats(0).writes, 5u);
}

Process reader_then_writer(Env env, Register<int>& a, Register<int>& b) {
  const int v = co_await env.read(a);
  co_await env.write(b, v + 1);
}

TEST(Simulation, ValuesFlowBetweenProcesses) {
  Simulation s(make_fixed_timing(10));
  Cell a(s.space(), 41), b(s.space());
  s.spawn([&](Env env) { return reader_then_writer(env, a.reg, b.reg); });
  s.run();
  EXPECT_EQ(b.reg.peek(), 42);
  EXPECT_EQ(s.stats(0).reads, 1u);
}

TEST(Simulation, InterleavingRespectsEventTimes) {
  // Fast process (cost 1) completes all writes before slow (cost 100)
  // does its first: the final value must be the slow one's.
  Simulation s(std::make_unique<PerProcessTiming>(
      std::vector<Duration>{1, 100}, 50));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 10, 3); });
  s.spawn([&](Env env) { return writer_process(env, c.reg, 99, 1); });
  s.run();
  EXPECT_EQ(c.reg.peek(), 99);
}

TEST(Simulation, DeterministicTraceForSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulation s(make_uniform_timing(1, 100), {.seed = seed, .trace = true});
    Cell c(s.space());
    for (int p = 0; p < 4; ++p)
      s.spawn([&](Env env) { return writer_process(env, c.reg, p, 50); });
    s.run();
    return s.trace_hash();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

// One process of the golden-order scenario below: what it does next
// depends on what it read, so any change in same-instant order moves
// every later step.  Delays mix 0, near and far (>= 64 ticks) due times.
Process golden_worker(Env env, Register<int>& reg, int id) {
  for (int i = 0; i < 40; ++i) {
    const int seen = co_await env.read(reg);
    switch ((seen + id + i) % 6) {
      case 0: co_await env.delay(0); break;
      case 1: co_await env.delay(1 + seen % 7); break;
      case 2: co_await env.delay(64 + seen % 200); break;
      case 3: co_await env.delay(63); break;
      case 4: co_await env.delay(env.rng().uniform(0, 299)); break;
      default: co_await env.write(reg, seen + id + 1); break;
    }
    co_await env.write(reg, (seen * 3 + id) % 1000);
  }
}

// Golden pin of the default (FIFO) event order.  The constants were
// captured with the binary-heap event queue; they pin (when, push order)
// tie-breaks across queue implementations, which a same-binary
// determinism check (DeterministicTraceForSeed) cannot.  Uniform access
// costs up to 100 ticks, delays far beyond the next 64 instants,
// delay(0), callbacks at `now` and far ahead, a callback that crashes a
// process mid-instant, crash_at and time-limited resumption all feed it.
TEST(Simulation, GoldenFifoOrderIsPinned) {
  Simulation s(make_uniform_timing(1, 100), {.seed = 2024, .trace = true});
  Register<int> reg(s.space(), 1);
  for (int p = 0; p < 5; ++p)
    s.spawn([&reg, p](Env env) { return golden_worker(env, reg, p); },
            p == 4 ? 200 : 0);
  s.crash_at(2, 777);
  std::uint64_t fired = 0xcbf29ce484222325ULL;
  auto note = [&](int id) {
    fired = (fired ^ static_cast<std::uint64_t>(s.now() * 131 + id)) *
            0x100000001b3ULL;
  };
  int chain = 0;
  std::function<void()> tick = [&] {
    note(100 + chain);
    static constexpr Duration kGaps[] = {0, 1, 70, 130, 64};
    if (chain < 25) s.schedule_callback(s.now() + kGaps[chain++ % 5], tick);
  };
  s.schedule_callback(0, tick);
  s.schedule_callback(5'000, [&] { note(1); });
  s.schedule_callback(500, [&] {
    note(2);
    s.schedule_callback(s.now(), [&] { note(3); });
    s.crash_at(3, s.now());
  });
  Time limit = 0;
  while (s.run(limit += 97) == Simulation::RunResult::TimeLimit) {
  }
  EXPECT_EQ(s.trace_hash(), 0xfb3639e47afa61a2ULL);
  EXPECT_EQ(fired, 0x6faf9e8434fb4fd6ULL);
  EXPECT_EQ(s.now(), 7225);
  EXPECT_EQ(s.trace_length(), 382u);
  EXPECT_TRUE(s.stats(2).crashed);
  EXPECT_TRUE(s.stats(3).crashed);
}

// --- Event queue ----------------------------------------------------------

struct QueuedEvent {
  Time when;
  std::uint64_t seq;
};

// Random push/pop scripts against a std::priority_queue oracle over
// (when, push order).  Like the simulator, the driver advances the window
// to each popped instant, except on some pops (the FIFO loop's crash
// skips) where the clock stays put and later pushes are due from the old
// instant.  Delays cover 0, the window's edges and far beyond it.
TEST(SimEventQueue, PopOrderMatchesReferenceHeap) {
  constexpr Time kW = EventQueue<QueuedEvent>::kWindow;
  static constexpr Duration kEdges[] = {0, 1, kW - 1, kW, kW + 1, 2 * kW};
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    EventQueue<QueuedEvent> queue;
    std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, Later> oracle;
    Time now = 0;
    std::uint64_t seq = 0;
    for (int round = 0; round < 3; ++round) {
      for (int op = 0; op < 3'000; ++op) {
        if (oracle.empty() || rng.bernoulli(0.55)) {
          Duration d = 0;
          switch (rng.index(4)) {
            case 0: d = kEdges[rng.index(std::size(kEdges))]; break;
            case 1: d = rng.uniform(0, kW - 1); break;
            case 2: d = rng.uniform(0, 10 * kW); break;
            default: d = rng.uniform(0, 3); break;
          }
          const QueuedEvent event{now + d, seq++};
          queue.emplace(event);
          oracle.push(event);
          continue;
        }
        ASSERT_FALSE(queue.empty());
        const QueuedEvent got = queue.top();
        ASSERT_EQ(got.when, oracle.top().when) << "seed " << seed;
        ASSERT_EQ(got.seq, oracle.top().seq) << "seed " << seed;
        queue.pop();
        oracle.pop();
        if (!rng.bernoulli(0.2)) {
          now = got.when;
          queue.advance(now);
        }
      }
      ASSERT_EQ(queue.size(), oracle.size());
      std::size_t visited = 0;
      queue.for_each([&](const QueuedEvent& e) {
        ++visited;
        EXPECT_GE(e.when, now);
      });
      EXPECT_EQ(visited, oracle.size());
      // Drain, then reuse the cleared queue from instant 0.
      while (!oracle.empty()) {
        ASSERT_EQ(queue.top().seq, oracle.top().seq) << "seed " << seed;
        now = queue.top().when;
        queue.pop();
        oracle.pop();
        queue.advance(now);
      }
      EXPECT_TRUE(queue.empty());
      queue.clear();
      now = 0;
    }
  }
}

Process delay_then_note(Env env, Duration first, Duration second, int id,
                        std::vector<int>& order) {
  co_await env.delay(first);
  if (second >= 0) co_await env.delay(second);
  order.push_back(id);
}

// An event due beyond the ring's window when it was pushed keeps its place
// ahead of events pushed later for the same instant, once that instant is
// inside the window.
TEST(SimEventQueue, FarEventKeepsFifoWithLaterNearPushes) {
  constexpr Time kW = EventQueue<QueuedEvent>::kWindow;
  const Time far = 2 * kW + 5;
  Simulation s(make_fixed_timing(1));
  std::vector<int> order;
  // Both pushed for `far` from instant 0, beyond the window: the callback
  // now, process 0's delay when it takes its first step.
  s.spawn([&](Env env) { return delay_then_note(env, far, -1, 0, order); });
  s.schedule_callback(far, [&] { order.push_back(1); });
  // Pushed for `far` from inside the window: after every far push.
  s.spawn(
      [&](Env env) { return delay_then_note(env, far - 10, 10, 2, order); });
  s.spawn([&](Env env) { return delay_then_note(env, far - 1, 1, 3, order); });
  // Pushed for `far` from outside the window, later than process 0.
  s.spawn([&](Env env) { return delay_then_note(env, 3, far - 3, 4, order); });
  // Pushed at `far` itself: a delay(0) lands behind everything due then.
  s.spawn([&](Env env) { return delay_then_note(env, far, 0, 5, order); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(s.now(), far);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 4, 2, 3, 5}));
}

// The FIFO loop pops a crashed event without moving the clock, then stops
// at the time limit.  A callback scheduled at now() must still run before
// the event due later, although the crash skip already went past now().
TEST(SimEventQueue, CallbackAfterTimeLimitRunsBeforeLaterEvents) {
  constexpr Time kW = EventQueue<QueuedEvent>::kWindow;
  Simulation s(make_fixed_timing(10));
  Register<int> reg(s.space(), 0);
  std::vector<int> order;
  s.spawn([&](Env env) { return writer_process(env, reg, 1, 1); });
  s.spawn([&](Env env) { return delay_then_note(env, kW - 4, -1, 1, order); });
  s.crash_at(0, 5);  // process 0's write, due at 10, never linearizes
  EXPECT_EQ(s.run(kW / 2), Simulation::RunResult::TimeLimit);
  EXPECT_TRUE(s.stats(0).crashed);
  EXPECT_EQ(s.now(), 0);  // the crash skip did not move the clock
  s.schedule_callback(s.now(), [&] { order.push_back(0); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(reg.peek(), 0);
}

TEST(Simulation, CrashAtDropsLaterAccesses) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 10); });
  s.crash_at(0, 35);  // accesses at 40.. never linearize
  s.run();
  EXPECT_EQ(s.stats(0).writes, 3u);
  EXPECT_TRUE(s.stats(0).crashed);
  EXPECT_TRUE(s.all_done());
}

TEST(Simulation, CrashAfterAccessesExactCount) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 10); });
  s.crash_after_accesses(0, 4);
  s.run();
  EXPECT_EQ(s.stats(0).writes, 4u);
  EXPECT_TRUE(s.stats(0).crashed);
}

TEST(Simulation, CrashedProcessDoesNotBlockOthers) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 10); });
  s.spawn([&](Env env) { return writer_process(env, c.reg, 100, 5); });
  s.crash_at(0, 5);
  s.run();
  EXPECT_TRUE(s.stats(0).crashed);
  EXPECT_TRUE(s.stats(1).done());
  EXPECT_EQ(s.stats(1).writes, 5u);
}

// --- Park / unpark ---------------------------------------------------------

struct ParkAwaiter {
  Simulation* sim;
  Pid pid;
  Time deadline;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim->park(pid, h, deadline);
  }
  void await_resume() const noexcept {}
};

// Parks with `first` as deadline, notes the wake instant, then parks for
// good: a second resume would note a second instant.
Process park_twice(Env env, Time first, std::vector<Time>& woke) {
  co_await ParkAwaiter{&env.sim(), env.pid(), first};
  woke.push_back(env.now());
  co_await ParkAwaiter{&env.sim(), env.pid(), kTimeNever};
  woke.push_back(env.now());
}

// Picks the first enabled option: the strategy-driven step, FIFO-like.
class PickFirstOption final : public SchedulerStrategy {
 public:
  std::size_t pick(Time, const std::vector<EnabledEvent>& options) override {
    for (const EnabledEvent& e : options) {
      if (e.kind == AccessKind::kWake) {
        EXPECT_EQ(e.reg, 0u);  // the epoch stays inside the simulator
        ++wakes;
      }
    }
    return 0;
  }
  int wakes = 0;
};

class SimParkStep : public ::testing::TestWithParam<bool> {};

// A deadline wake retired by an earlier unpark is skipped when its
// instant comes, on the FIFO step and on the strategy-driven one.
TEST_P(SimParkStep, StaleDeadlineWakeIsSkipped) {
  PickFirstOption strategy;
  Simulation s(make_fixed_timing(1),
               {.strategy = GetParam() ? &strategy : nullptr});
  std::vector<Time> woke;
  s.spawn([&](Env env) { return park_twice(env, 100, woke); });
  s.schedule_callback(10, [&] { EXPECT_TRUE(s.unpark(0, 20)); });
  s.schedule_callback(15, [&] { EXPECT_FALSE(s.unpark(0, 30)); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(woke, (std::vector<Time>{20}));  // not again at 100
  EXPECT_FALSE(s.stats(0).done());
  if (GetParam()) {
    EXPECT_EQ(strategy.wakes, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Steps, SimParkStep, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Strategy" : "Fifo";
                         });

TEST(SimPark, DeadlineWakesWithoutUnpark) {
  Simulation s(make_fixed_timing(1));
  std::vector<Time> woke;
  s.spawn([&](Env env) { return park_twice(env, 40, woke); }, 5);
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(woke, (std::vector<Time>{40}));
  EXPECT_EQ(s.stats(0).delays, 0u);  // a park is no delay statement
}

TEST(SimPark, UnparkOfAProcessThatIsNotParkedIsANoOp) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 1, 2); });
  EXPECT_FALSE(s.unpark(0, 0));  // not started yet
  EXPECT_EQ(s.run(5), Simulation::RunResult::TimeLimit);
  const auto pending = s.pending_events();
  EXPECT_FALSE(s.unpark(0, 6));  // mid-access
  EXPECT_EQ(s.pending_events(), pending);
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_FALSE(s.unpark(0, s.now()));  // finished
  EXPECT_EQ(s.stats(0).writes, 2u);
  EXPECT_EQ(s.now(), 20);
}

TEST(SimPark, ProcessCrashedWhileParkedIsNeverResumed) {
  Simulation s(make_fixed_timing(1));
  std::vector<Time> woke;
  s.spawn([&](Env env) { return park_twice(env, kTimeNever, woke); });
  EXPECT_EQ(s.run(0), Simulation::RunResult::Idle);  // parked, no event
  s.crash_at(0, 5);
  s.schedule_callback(10, [&] { EXPECT_TRUE(s.unpark(0, 10)); });
  s.schedule_callback(20, [&] { EXPECT_FALSE(s.unpark(0, 20)); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_TRUE(woke.empty());
  EXPECT_TRUE(s.stats(0).crashed);
}

TEST(SimPark, ResetDropsParkState) {
  Simulation s(make_fixed_timing(1));
  std::vector<Time> woke;
  s.spawn([&](Env env) { return park_twice(env, 50, woke); });
  EXPECT_EQ(s.run(0), Simulation::RunResult::TimeLimit);
  s.reset(1);
  Register<int> reg(s.space(), 0);
  s.spawn([&](Env env) { return writer_process(env, reg, 1, 3); });
  EXPECT_FALSE(s.unpark(0, 0));  // the new pid 0 is not parked
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_TRUE(woke.empty());
  EXPECT_EQ(s.stats(0).writes, 3u);
  EXPECT_EQ(s.now(), 3);
  EXPECT_TRUE(s.pending_events().empty());
}

// Two runs that differ only in a retired wake still queued in one of
// them: the same state, so the same signature and pending view.
TEST(SimPark, FingerprintIgnoresStaleWakes) {
  auto parked_at_20 = [](Time first_deadline, bool unpark) {
    auto s = std::make_unique<Simulation>(make_fixed_timing(1));
    auto woke = std::make_shared<std::vector<Time>>();
    s->spawn([woke, first_deadline](Env env) {
      return park_twice(env, first_deadline, *woke);
    });
    EXPECT_EQ(s->run(0), Simulation::RunResult::TimeLimit);
    if (unpark) {
      EXPECT_TRUE(s->unpark(0, 20));
    }
    return std::make_pair(s->state_fingerprint(), s->pending_events());
  };
  const auto with_stale = parked_at_20(100, true);
  const auto without = parked_at_20(20, false);
  EXPECT_EQ(with_stale.first, without.first);
  EXPECT_EQ(with_stale.second, without.second);
  EXPECT_EQ(without.second,
            (std::vector<std::pair<Time, Pid>>{{20, 0}}));
}

Process thrower(Env env, Register<int>& reg) {
  co_await env.write(reg, 1);
  TFR_REQUIRE(!"boom");
}

TEST(Simulation, ExceptionsPropagateToRun) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return thrower(env, c.reg); });
  EXPECT_THROW(s.run(), ContractViolation);
}

// --- Task composition ------------------------------------------------------

Task<int> add_task(Env env, Register<int>& reg, int amount) {
  const int v = co_await env.read(reg);
  co_await env.write(reg, v + amount);
  co_return v + amount;
}

Task<int> double_add(Env env, Register<int>& reg, int amount) {
  const int first = co_await add_task(env, reg, amount);
  const int second = co_await add_task(env, reg, amount);
  co_return first + second;
}

Process task_user(Env env, Register<int>& reg, int* out) {
  *out = co_await double_add(env, reg, 10);
}

TEST(Task, NestedTasksComposeAndReturnValues) {
  Simulation s(make_fixed_timing(5));
  Cell c(s.space());
  int out = 0;
  s.spawn([&](Env env) { return task_user(env, c.reg, &out); });
  s.run();
  EXPECT_EQ(c.reg.peek(), 20);
  EXPECT_EQ(out, 30);         // 10 + 20
  EXPECT_EQ(s.now(), 20);     // 4 accesses at 5 ticks
}

Task<int> failing_task(Env env, Register<int>& reg) {
  co_await env.read(reg);
  TFR_REQUIRE(!"task failure");
  co_return 0;
}

Process catching_process(Env env, Register<int>& reg, bool* caught) {
  try {
    co_await failing_task(env, reg);
  } catch (const ContractViolation&) {
    *caught = true;
  }
}

TEST(Task, ExceptionsPropagateThroughCoAwait) {
  Simulation s(make_fixed_timing(5));
  Cell c(s.space());
  bool caught = false;
  s.spawn([&](Env env) { return catching_process(env, c.reg, &caught); });
  s.run();
  EXPECT_TRUE(caught);
}

// --- Registers -------------------------------------------------------------

TEST(Registers, SpaceCountsAllocations) {
  RegisterSpace space;
  EXPECT_EQ(space.allocated(), 0u);
  Register<int> a(space, 0), b(space, 1);
  EXPECT_EQ(space.allocated(), 2u);
  RegisterArray<int> arr(space, 0, "arr");
  EXPECT_EQ(space.allocated(), 2u);  // arrays allocate lazily
  arr.at(4);
  EXPECT_EQ(space.allocated(), 7u);  // indices 0..4
  EXPECT_EQ(arr.size(), 5u);
}

TEST(Registers, ArrayCellsAreStable) {
  RegisterSpace space;
  RegisterArray<int> arr(space, -1);
  Register<int>* first = &arr.at(0);
  arr.at(1000);
  EXPECT_EQ(first, &arr.at(0));  // chunked storage: no relocation
  EXPECT_EQ(arr.at(999).peek(), -1);
}

TEST(Registers, ArrayCellsAreNamedByIndex) {
  RegisterSpace space;
  Register<int> tail(space, 0, "ch.0>1.tail");
  RegisterArray<int> slots(space, 0, "ch.0>1.slot");
  EXPECT_EQ(tail.name(), "ch.0>1.tail");
  EXPECT_EQ(slots.at(123).name(), "ch.0>1.slot[123]");
  EXPECT_EQ(slots.at(0).name(), "ch.0>1.slot[0]");
  RegisterArray<int> unnamed(space, 0);
  EXPECT_EQ(unnamed.at(7).name(), "[7]");
}

TEST(Registers, ArrayGrowthKeepsAddressesUidsAndValues) {
  RegisterSpace space;
  Register<int> before(space, 0);
  RegisterArray<std::int64_t> arr(space, 7, "arr");
  // Grow one cell at a time across several chunk boundaries, pinning
  // every cell's address and marking its value as it is created.
  std::vector<const Register<std::int64_t>*> cells;
  for (std::size_t i = 0; i < 5 * 64 + 9; ++i) {
    Register<std::int64_t>& cell = arr.at(i);
    cell.poke(static_cast<std::int64_t>(i));
    cells.push_back(&cell);
  }
  arr.at(2000);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cells[i], &arr.at(i)) << "cell " << i << " moved";
    EXPECT_EQ(arr.at(i).peek(), static_cast<std::int64_t>(i));
    // Uids follow allocation order, after the standalone register.
    EXPECT_EQ(arr.at(i).uid(), before.uid() + 1 + i);
  }
  EXPECT_EQ(arr.at(1999).peek(), 7);
  EXPECT_EQ(arr.size(), 2001u);
  EXPECT_EQ(space.allocated(), 2002u);
}

// Releasing a prefix changes storage only: every later cell gets the uid,
// name and value it gets in an array that keeps everything, and a released
// chunk's storage is reused for the next chunk.
TEST(Registers, ReleasedArrayBuildsTheSameLaterCells) {
  RegisterSpace kept_space;
  RegisterSpace released_space;
  RegisterArray<int> kept(kept_space, -1, "x");
  RegisterArray<int> released(released_space, -1, "x");
  const Register<int>* first_chunk = &released.at(0);
  for (std::size_t i = 0; i < 1000; ++i) {
    kept.at(i).poke(static_cast<int>(3 * i));
    released.at(i).poke(static_cast<int>(3 * i));
    if (i == 100) {
      released.release_below(70);  // chunk 0 only: 64..69 stay
      EXPECT_EQ(released.released(), 64u);
      EXPECT_EQ(released.live_chunks(), 1u);
    }
    if (i == 128) {
      // Chunk 2 reuses chunk 0's storage.
      EXPECT_EQ(&released.at(128), first_chunk);
    }
    if (i % 97 == 0) released.release_below(i - i % 50);
  }
  released.release_below(released.released());  // a no-op
  EXPECT_EQ(released.released(), 896u);  // 970 - 970 % 50, floored to 64
  EXPECT_EQ(released.live_chunks(), 2u);
  EXPECT_EQ(kept.live_chunks(), 16u);
  for (std::size_t i = released.released(); i < 1500; ++i) {
    ASSERT_EQ(released.at(i).uid(), kept.at(i).uid()) << "cell " << i;
    EXPECT_EQ(released.at(i).name(), kept.at(i).name());
    EXPECT_EQ(released.at(i).peek(), kept.at(i).peek());
  }
  EXPECT_EQ(released.size(), kept.size());
  EXPECT_EQ(released_space.allocated(), kept_space.allocated());
}

TEST(Registers, AtBelowTheReleasedBoundFails) {
  RegisterSpace space;
  RegisterArray<int> arr(space, 0, "x");
  arr.at(200);
  arr.release_below(130);
  EXPECT_EQ(arr.released(), 128u);
  EXPECT_THROW(arr.at(127), ContractViolation);
  EXPECT_THROW(std::as_const(arr).at(0), ContractViolation);
  EXPECT_THROW(arr.release_below(202), ContractViolation);  // beyond size()
  // The failed calls rebuilt nothing.
  EXPECT_EQ(space.allocated(), 201u);
  EXPECT_EQ(arr.at(128).uid(), 129u);
}

/// Has padding, so its bytes cannot be hashed: the space still gives it a
/// fingerprint entry, keeping entries indexed by uid.
struct Padded {
  std::int32_t a = 0;
  std::int64_t b = 0;
};

// Capture mode holds a value-hash entry per register.  A released cell's
// entry is retired before its storage is reused, so the fingerprint reads
// no freed memory (ASan checks that) and no longer depends on the dead
// value, while a live cell's value still counts.
TEST(Registers, CaptureModeFingerprintRetiresReleasedCells) {
  const auto fingerprint_after_release = [](int dead_value, int live_value) {
    Simulation s(make_fixed_timing(1), {.capture_state = true});
    Register<Padded> padded(s.space(), Padded{}, "padded");
    RegisterArray<int> arr(s.space(), 0, "x");
    arr.at(199);
    for (std::size_t i = 0; i < 128; ++i) arr.at(i).poke(dead_value);
    const std::uint64_t before = s.state_fingerprint();
    arr.release_below(150);  // chunks 0 and 1: cells 0..127
    arr.at(150).poke(live_value);
    arr.at(300);  // reuses a released chunk's storage
    EXPECT_NE(s.state_fingerprint(), before);
    return std::pair{s.space().values_fingerprint(), s.state_fingerprint()};
  };
  const auto base = fingerprint_after_release(1, 5);
  EXPECT_EQ(fingerprint_after_release(2, 5), base);
  EXPECT_NE(fingerprint_after_release(1, 6).first, base.first);
}

// Cache-coherent RMR accounting, as a per-pid vector of "holds a valid
// copy" bits: the reference the register's inline mask (pids < 64) and
// heap spill (pids >= 64) must reproduce exactly.
struct ReferenceRmr {
  std::vector<bool> cached;
  bool read(Pid pid) {
    const auto index = static_cast<std::size_t>(pid);
    if (index < cached.size() && cached[index]) return false;
    if (index >= cached.size()) cached.resize(index + 1, false);
    cached[index] = true;
    return true;
  }
  void write(Pid pid) {
    cached.assign(cached.size(), false);
    const auto index = static_cast<std::size_t>(pid);
    if (index >= cached.size()) cached.resize(index + 1, false);
    cached[index] = true;
  }
};

TEST(Registers, RmrAccountingForLowAndHighPids) {
  RegisterSpace space;
  Register<int> reg(space, 0);
  // Pid 3 uses the inline mask, pid 70 the heap spill.
  EXPECT_TRUE(reg.note_read_rmr(3));    // first read: remote
  EXPECT_FALSE(reg.note_read_rmr(3));   // cached: local spin
  EXPECT_TRUE(reg.note_read_rmr(70));
  EXPECT_FALSE(reg.note_read_rmr(70));
  reg.note_write_rmr(70);               // invalidates pid 3's copy
  EXPECT_TRUE(reg.note_read_rmr(3));
  EXPECT_FALSE(reg.note_read_rmr(70));  // the writer keeps its copy
  reg.note_write_rmr(3);                // invalidates pid 70's copy
  EXPECT_FALSE(reg.note_read_rmr(3));
  EXPECT_TRUE(reg.note_read_rmr(70));
  EXPECT_FALSE(reg.note_read_rmr(70));

  // A random mix over pids on both sides of every word boundary.
  const Pid pids[] = {0, 3, 63, 64, 70, 127, 128, 200};
  Register<int> mixed(space, 0);
  ReferenceRmr reference;
  Rng rng(11);
  for (int step = 0; step < 4000; ++step) {
    const Pid pid = pids[rng.index(std::size(pids))];
    if (rng.bernoulli(0.25)) {
      mixed.note_write_rmr(pid);
      reference.write(pid);
    } else {
      ASSERT_EQ(mixed.note_read_rmr(pid), reference.read(pid))
          << "step " << step << " pid " << pid;
    }
  }
}

TEST(Registers, AccessCountsViaSimulation) {
  Simulation s(make_fixed_timing(1));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 0, 4); });
  s.run();
  EXPECT_EQ(c.reg.writes(), 4u);
  EXPECT_EQ(s.space().total_writes(), 4u);
}

// --- Timing models ---------------------------------------------------------

TEST(Timing, FixedAlwaysSame) {
  FixedTiming t(42);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.access_cost(0, i, rng), 42);
}

TEST(Timing, UniformWithinBoundsAndVaries) {
  UniformTiming t(5, 50);
  Rng rng(1);
  bool varied = false;
  Duration first = t.access_cost(0, 0, rng);
  for (int i = 0; i < 200; ++i) {
    const Duration c = t.access_cost(0, i, rng);
    EXPECT_GE(c, 5);
    EXPECT_LE(c, 50);
    varied |= (c != first);
  }
  EXPECT_TRUE(varied);
}

TEST(Timing, ScriptedThenFallback) {
  ScriptedTiming t(make_fixed_timing(7));
  t.push(1, 100);
  t.push(1, 200);
  Rng rng(1);
  EXPECT_EQ(t.access_cost(1, 0, rng), 100);
  EXPECT_EQ(t.access_cost(1, 0, rng), 200);
  EXPECT_EQ(t.access_cost(1, 0, rng), 7);   // script exhausted
  EXPECT_EQ(t.access_cost(0, 0, rng), 7);   // other pid unscripted
}

TEST(Timing, FailureWindowStretchesVictims) {
  auto injector =
      std::make_unique<FailureInjector>(make_fixed_timing(10), 10);
  injector->add_window({.begin = 100, .end = 200, .victims = {1},
                        .stretched = 500});
  Rng rng(1);
  EXPECT_EQ(injector->access_cost(1, 50, rng), 10);   // before window
  EXPECT_EQ(injector->access_cost(1, 150, rng), 500); // inside window
  EXPECT_EQ(injector->access_cost(0, 150, rng), 10);  // not a victim
  EXPECT_EQ(injector->access_cost(1, 200, rng), 10);  // window closed
  EXPECT_EQ(injector->failures_injected(), 1u);
  EXPECT_EQ(injector->last_failure_completion(), 650);
}

TEST(Timing, FailureWindowEmptyVictimsMeansEveryone) {
  auto injector =
      std::make_unique<FailureInjector>(make_fixed_timing(10), 10);
  injector->add_window({.begin = 0, .end = 100, .stretched = 99});
  Rng rng(1);
  EXPECT_EQ(injector->access_cost(3, 50, rng), 99);
}

TEST(Timing, RandomFailuresRoughlyMatchRate) {
  auto injector =
      std::make_unique<FailureInjector>(make_fixed_timing(10), 10);
  injector->set_random_failures(0.2, 100);
  Rng rng(1);
  int failures = 0;
  for (int i = 0; i < 10000; ++i)
    failures += (injector->access_cost(0, i, rng) > 10);
  EXPECT_NEAR(failures / 10000.0, 0.2, 0.02);
}

TEST(Timing, InjectedCostMustExceedDelta) {
  auto injector =
      std::make_unique<FailureInjector>(make_fixed_timing(10), 10);
  EXPECT_THROW(
      injector->add_window({.begin = 0, .end = 1, .stretched = 10}),
      ContractViolation);
}

// --- Monitors ---------------------------------------------------------------

TEST(MutexMonitor, DetectsViolation) {
  MutexMonitor mon;
  mon.throw_on_violation(false);
  mon.enter_entry(0, 0);
  mon.enter_entry(1, 1);
  mon.enter_cs(0, 2);
  mon.enter_cs(1, 3);  // overlap!
  EXPECT_EQ(mon.mutual_exclusion_violations(), 1u);
  EXPECT_FALSE(mon.mutual_exclusion_holds());
}

TEST(MutexMonitor, ThrowsWhenConfigured) {
  MutexMonitor mon;
  mon.enter_entry(0, 0);
  mon.enter_entry(1, 0);
  mon.enter_cs(0, 1);
  EXPECT_THROW(mon.enter_cs(1, 2), ContractViolation);
}

TEST(MutexMonitor, TimeComplexityMeasuresEntryWhileEmpty) {
  MutexMonitor mon;
  mon.enter_entry(0, 100);   // CS empty, entry busy from 100
  mon.enter_cs(0, 160);      // interval [100, 160): length 60
  mon.enter_entry(1, 170);   // CS occupied: no starved interval
  mon.exit_cs(0, 200);       // now 1 waits with CS empty from 200
  mon.enter_cs(1, 220);      // interval [200, 220): length 20
  mon.exit_cs(1, 230);
  EXPECT_EQ(mon.time_complexity(), 60);
  EXPECT_EQ(mon.time_complexity(150), 20);  // only intervals starting >= 150
  EXPECT_EQ(mon.cs_entries(), 2u);
}

TEST(MutexMonitor, TracksWaits) {
  MutexMonitor mon;
  mon.enter_entry(0, 0);
  mon.enter_cs(0, 50);
  mon.exit_cs(0, 60);
  mon.leave_exit(0, 61);
  mon.enter_entry(0, 100);
  mon.enter_cs(0, 110);
  EXPECT_EQ(mon.max_wait(0), 50);
  EXPECT_EQ(mon.max_wait(), 50);
  EXPECT_EQ(mon.max_wait_starting_at(90), 10);
  EXPECT_EQ(mon.cs_entries(0), 2u);
}

TEST(DecisionMonitor, AgreementAndValidity) {
  DecisionMonitor mon;
  mon.set_input(0, 1);
  mon.set_input(1, 0);
  mon.on_decide(0, 1, 10);
  mon.on_decide(1, 1, 20);
  EXPECT_TRUE(mon.agreement_holds());
  EXPECT_TRUE(mon.validity_holds());
  EXPECT_TRUE(mon.all_decided(2));
  EXPECT_EQ(mon.first_decision_time(), 10);
  EXPECT_EQ(mon.last_decision_time(), 20);
  EXPECT_EQ(mon.decision(1), 1);
}

TEST(DecisionMonitor, FlagsConflictingDecisions) {
  DecisionMonitor mon;
  mon.throw_on_violation(false);
  mon.set_input(0, 0);
  mon.set_input(1, 1);
  mon.on_decide(0, 0, 1);
  mon.on_decide(1, 1, 2);
  EXPECT_FALSE(mon.agreement_holds());
}

TEST(DecisionMonitor, FlagsInventedValues) {
  DecisionMonitor mon;
  mon.throw_on_violation(false);
  mon.set_input(0, 0);
  mon.on_decide(0, 7, 1);
  EXPECT_FALSE(mon.validity_holds());
}


TEST(Simulation, ScheduledCallbacksRunAtTheirInstant) {
  Simulation s(make_fixed_timing(10));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 5, 3); });
  std::vector<std::pair<Time, int>> fired;
  s.schedule_callback(15, [&] { fired.emplace_back(s.now(), 1); });
  s.schedule_callback(15, [&] { fired.emplace_back(s.now(), 2); });
  s.schedule_callback(5, [&] {
    // Callbacks may schedule further callbacks (fault-schedule chaining).
    s.schedule_callback(25, [&] { fired.emplace_back(s.now(), 3); });
    fired.emplace_back(s.now(), 0);
  });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<Time, int>{5, 0}));
  EXPECT_EQ(fired[1], (std::pair<Time, int>{15, 1}));  // same-instant order
  EXPECT_EQ(fired[2], (std::pair<Time, int>{15, 2}));  // = scheduling order
  EXPECT_EQ(fired[3], (std::pair<Time, int>{25, 3}));
  EXPECT_EQ(c.reg.peek(), 7);  // the processes were not disturbed
}

TEST(Simulation, ScheduledCallbackInThePastIsRejected) {
  Simulation s(make_fixed_timing(1));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 1, 3); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(s.now(), 3);
  EXPECT_THROW(s.schedule_callback(1, [] {}), ContractViolation);
}

// A running callback may schedule more callbacks than the callback list
// has room for; its own captures must survive the list growing (an
// AddressSanitizer build reports the use after free if they do not).
TEST(Simulation, CallbackMayGrowTheCallbackList) {
  Simulation s(make_fixed_timing(1));
  std::vector<int> ran;
  s.schedule_callback(0, [&s, &ran] {
    for (int k = 1; k <= 64; ++k)
      s.schedule_callback(k, [&ran, k] { ran.push_back(k); });
    ran.push_back(0);  // reads this callback's captures after the growth
  });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  ASSERT_EQ(ran.size(), 65u);
  EXPECT_EQ(ran.front(), 0);
  EXPECT_EQ(ran.back(), 64);
}

// A process can start no earlier than now: the event queue's window
// begins at the clock, so an earlier start is rejected at spawn.
TEST(Simulation, SpawnInThePastIsRejected) {
  Simulation s(make_fixed_timing(1));
  Cell c(s.space());
  s.spawn([&](Env env) { return writer_process(env, c.reg, 1, 3); });
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  auto late = [&](Env env) { return writer_process(env, c.reg, 1, 1); };
  EXPECT_THROW(s.spawn(late, /*start=*/2), ContractViolation);
  s.spawn(late, s.now());
  EXPECT_EQ(s.run(), Simulation::RunResult::Idle);
  EXPECT_EQ(s.stats(1).writes, 1u);
}

}  // namespace
}  // namespace tfr::sim
