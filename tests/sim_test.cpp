// Tests for the simulator substrate: event ordering, timing semantics,
// failure injection, crashes, registers, tasks, monitors, determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
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

}  // namespace
}  // namespace tfr::sim
