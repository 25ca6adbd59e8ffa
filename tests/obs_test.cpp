// Tests for the observability layer (src/obs/): TraceSink semantics,
// golden traces (same seed => byte-identical JSON and binary), the binary
// round-trip, deterministic replay of a consensus run with injected
// timing failures, monitor violations appearing in the trace, derived
// metrics, and the deterministic rt fault injector.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tfr/core/consensus_sim.hpp"
#include "tfr/mutex/mutex_sim.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/obs/export.hpp"
#include "tfr/obs/metrics.hpp"
#include "tfr/obs/replay.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/registers/fault_injector.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr {
namespace {

constexpr sim::Duration kDelta = 100;

// A consensus run with windowed + random timing failures, fully described
// by a TimingSpec so it can be recorded and replayed.
obs::TimingSpec failing_spec() {
  obs::TimingSpec spec;
  spec.kind = obs::TimingSpec::Kind::kUniform;
  spec.lo = 1;
  spec.hi = kDelta;
  spec.delta = kDelta;
  spec.windows.push_back({.begin = 0,
                          .end = 5 * kDelta,
                          .victims = {0, 2},
                          .stretched = 7 * kDelta});
  spec.random_p = 0.05;
  spec.random_stretch_max = 4 * kDelta;
  return spec;
}

// Forwards access costs to a timing model the caller keeps alive.  Lets a
// test hand run_consensus (which takes ownership and destroys its timing
// model with the Simulation) a view of an injector whose counters the test
// still wants to read after the run.
class BorrowedTiming final : public sim::TimingModel {
 public:
  explicit BorrowedTiming(sim::TimingModel* inner) : inner_(inner) {}
  sim::Duration access_cost(sim::Pid pid, sim::Time now, Rng& rng) override {
    return inner_->access_cost(pid, now, rng);
  }

 private:
  sim::TimingModel* inner_;
};

// Scenario body shared by the record/replay tests: 4 participants with
// split inputs; captures the decision for outcome checks.
struct ConsensusCapture {
  int value = sim::kBot;
  std::size_t max_round = 0;
  std::size_t decided = 0;
};

obs::Scenario consensus_scenario(ConsensusCapture* capture) {
  return [capture](sim::Simulation& simulation) {
    auto consensus = std::make_shared<core::SimConsensus>(simulation.space(),
                                                          kDelta);
    consensus->monitor().set_trace_sink(simulation.trace_sink());
    const std::vector<int> inputs = {0, 1, 1, 0};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      consensus->monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
      simulation.spawn([consensus, input = inputs[i]](sim::Env env) {
        return consensus->participant(env, input);
      });
    }
    simulation.run();
    if (capture != nullptr) {
      capture->value = consensus->decided_value();
      capture->max_round = consensus->max_round();
      capture->decided = consensus->monitor().decided_count();
    }
  };
}

TEST(TraceSink, AppendInternAndOverflow) {
  obs::TraceSink sink(2);
  const std::uint32_t a = sink.intern("x");
  EXPECT_EQ(sink.intern("x"), a);
  const std::uint32_t b = sink.intern("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.label(a), "x");
  EXPECT_EQ(sink.label(0), "");

  sink.append({1, 0, obs::EventKind::kRead, 3, 0, a});
  sink.append({2, 1, obs::EventKind::kWrite, 4, 7, b});
  sink.append({3, 0, obs::EventKind::kDelay, 5, 0, 0});  // over capacity
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);

  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.label(a), "x");  // labels survive clear()
}

// Four real threads append across several chunk boundaries (and into a
// final partial chunk): every event lands exactly once, none is dropped,
// and the first append past the capacity is counted, not stored.
TEST(ObsTraceSink, ConcurrentAppendsAcrossChunksRecordEachEventOnce) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 3 * obs::TraceSink::kChunkEvents + 17;
  obs::TraceSink sink(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        sink.append({0, t, obs::EventKind::kCounter,
                     static_cast<std::int64_t>(i), 0, 0});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_EQ(sink.size(), kThreads * kPerThread);
  EXPECT_EQ(sink.dropped(), 0u);
  std::vector<std::vector<int>> seen(kThreads, std::vector<int>(kPerThread));
  for (const obs::Event& e : sink.snapshot()) {
    ASSERT_GE(e.pid, 0);
    ASSERT_LT(e.pid, kThreads);
    ASSERT_GE(e.a, 0);
    ASSERT_LT(static_cast<std::size_t>(e.a), kPerThread);
    ++seen[static_cast<std::size_t>(e.pid)][static_cast<std::size_t>(e.a)];
  }
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(seen[static_cast<std::size_t>(t)][i], 1)
          << "thread " << t << " event " << i;
    }
  }

  sink.append({});
  EXPECT_EQ(sink.size(), kThreads * kPerThread);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceExport, BinaryRoundTrip) {
  obs::TraceSink sink;
  const std::uint32_t reg = sink.intern("decide");
  sink.append({10, 0, obs::EventKind::kWrite, 5, 1, reg});
  sink.append({15, 1, obs::EventKind::kDecide, 1, 0, 0});
  sink.append({-3, -1, obs::EventKind::kStall, 123456, 2, reg});

  const std::string bytes = obs::encode_binary(sink);
  obs::TraceSink decoded;
  ASSERT_TRUE(obs::decode_binary(bytes, decoded));
  ASSERT_EQ(decoded.size(), sink.size());
  for (std::size_t i = 0; i < sink.size(); ++i)
    EXPECT_EQ(decoded[i], sink[i]) << "event " << i;
  EXPECT_EQ(obs::encode_binary(decoded), bytes);
  EXPECT_EQ(decoded.hash(), sink.hash());

  obs::TraceSink garbage;
  EXPECT_FALSE(obs::decode_binary("not a trace", garbage));
}

// Golden trace: the same (seed, model, scenario) yields byte-identical
// JSON and binary encodings across runs.
TEST(TraceExport, GoldenTraceIsByteIdentical) {
  auto run_once = [](std::string* json) {
    obs::TraceSink sink;
    auto timing = obs::make_timing(failing_spec(), &sink);
    core::ConsensusOutcome outcome = core::run_consensus(
        {0, 1, 1, 0}, kDelta, std::move(timing), /*seed=*/7, sim::kTimeNever,
        &sink);
    EXPECT_TRUE(outcome.all_decided);
    *json = obs::to_chrome_json(sink);
    return obs::encode_binary(sink);
  };

  std::string json_a, json_b;
  const std::string binary_a = run_once(&json_a);
  const std::string binary_b = run_once(&json_b);
  EXPECT_EQ(binary_a, binary_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_FALSE(json_a.empty());

  // Shape of the Chrome trace_event "JSON Object Format".
  EXPECT_EQ(json_a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json_a.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json_a.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json_a.find("timing-failure"), std::string::npos);
  EXPECT_NE(json_a.find("decide"), std::string::npos);
  EXPECT_EQ(json_a.back(), '}');

  // A different seed produces a different execution (and so a different
  // trace) under this randomized model.
  obs::TraceSink other;
  auto timing = obs::make_timing(failing_spec(), &other);
  core::run_consensus({0, 1, 1, 0}, kDelta, std::move(timing), /*seed=*/8,
                      sim::kTimeNever, &other);
  EXPECT_NE(obs::encode_binary(other), binary_a);
}

TEST(Replay, ConsensusWithInjectedFailuresRoundTrips) {
  ConsensusCapture recorded;
  const obs::RecordedRun run =
      obs::record(/*seed=*/21, failing_spec(), consensus_scenario(&recorded));
  ASSERT_EQ(recorded.decided, 4u);
  ASSERT_NE(recorded.value, sim::kBot);

  ConsensusCapture replayed;
  const obs::ReplayResult result =
      obs::replay(run, consensus_scenario(&replayed));
  EXPECT_TRUE(result.identical) << "first divergence at event "
                                << result.first_divergence;
  EXPECT_EQ(result.trace, run.trace);
  // Identical decision value, decision round, and event sequence.
  EXPECT_EQ(replayed.value, recorded.value);
  EXPECT_EQ(replayed.max_round, recorded.max_round);
  EXPECT_EQ(replayed.decided, recorded.decided);

  // The artifact survives serialization: save/load and replay again.
  const std::string bytes = run.to_bytes();
  const auto loaded = obs::RecordedRun::from_bytes(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, run.seed);
  EXPECT_EQ(loaded->trace, run.trace);
  EXPECT_EQ(loaded->timing.windows.size(), run.timing.windows.size());
  const obs::ReplayResult again = obs::replay(*loaded,
                                              consensus_scenario(nullptr));
  EXPECT_TRUE(again.identical);

  // A divergent scenario (different inputs) is detected, not silently
  // accepted.
  const obs::Scenario different = [](sim::Simulation& simulation) {
    auto consensus = std::make_shared<core::SimConsensus>(simulation.space(),
                                                          kDelta);
    consensus->monitor().set_trace_sink(simulation.trace_sink());
    for (int input : {1, 1, 1, 1}) {
      simulation.spawn([consensus, input](sim::Env env) {
        return consensus->participant(env, input);
      });
    }
    simulation.run();
  };
  EXPECT_FALSE(obs::replay(run, different).identical);
}

// The §3.1 scripted Fischer violation, now with a sink attached: the ME
// violation must be visible in the trace, labelled, alongside the gate's
// accesses.
TEST(TraceMonitor, FischerViolationAppearsInTrace) {
  obs::TraceSink sink;
  auto script = std::make_unique<sim::ScriptedTiming>(
      sim::make_fixed_timing(1));
  script->push(0, 1);     // p0: read x = 0
  script->push(0, 1000);  // p0: write x := 1 stalls past Delta (preemption)
  script->push(1, 2);     // p1: runs the whole gate meanwhile
  script->push(1, 1);
  script->push(1, 1);

  const auto result = mutex::run_mutex_workload(
      [](sim::RegisterSpace& sp) {
        return std::make_unique<mutex::FischerMutex>(sp, kDelta);
      },
      mutex::WorkloadConfig{.processes = 2,
                            .sessions = 1,
                            .cs_time = 5000,
                            .ncs_time = 0,
                            .tolerate_violations = true},
      std::move(script), /*seed=*/1, 1'000'000, &sink);
  ASSERT_GE(result.violations, 1u);

  std::size_t violations_in_trace = 0;
  std::size_t cs_enters = 0;
  bool saw_labelled_violation = false;
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const obs::Event& e = sink[i];
    if (e.kind == obs::EventKind::kViolation) {
      ++violations_in_trace;
      saw_labelled_violation |=
          sink.label(e.label) == "mutual-exclusion";
    }
    cs_enters += e.kind == obs::EventKind::kCsEnter;
  }
  EXPECT_EQ(violations_in_trace, result.violations);
  EXPECT_TRUE(saw_labelled_violation);
  EXPECT_EQ(cs_enters, 2u);  // both processes entered — that is the bug

  const obs::TraceMetrics metrics = obs::compute_metrics(sink);
  EXPECT_EQ(metrics.violations, result.violations);
  const std::string json = obs::to_chrome_json(sink);
  EXPECT_NE(json.find("mutual-exclusion violation"), std::string::npos);
}

TEST(TraceMetrics, ConsensusRunMetricsMatchOutcome) {
  obs::TraceSink sink;
  auto injector = std::make_unique<sim::FailureInjector>(
      sim::make_uniform_timing(1, kDelta), kDelta);
  injector->add_window(
      {.begin = 0, .end = 3 * kDelta, .victims = {0}, .stretched = 5 * kDelta});
  injector->set_trace_sink(&sink);

  const core::ConsensusOutcome outcome = core::run_consensus(
      {0, 1}, kDelta, std::make_unique<BorrowedTiming>(injector.get()),
      /*seed=*/3, sim::kTimeNever, &sink);
  ASSERT_TRUE(outcome.all_decided);

  const obs::TraceMetrics metrics = obs::compute_metrics(sink);
  std::uint64_t steps = 0, delays = 0;
  for (std::uint64_t s : outcome.steps) steps += s;
  for (std::uint64_t d : outcome.delays) delays += d;
  EXPECT_EQ(metrics.reads + metrics.writes, steps);
  EXPECT_EQ(metrics.delays, delays);
  EXPECT_EQ(metrics.decides, 2u);
  EXPECT_EQ(metrics.max_round, outcome.max_round);
  EXPECT_EQ(metrics.timing_failures, injector->failures_injected());
  EXPECT_EQ(metrics.last_failure_completion,
            injector->last_failure_completion());
  EXPECT_EQ(metrics.last_decision, outcome.last_decision);
  EXPECT_GE(metrics.rmr, metrics.writes);
  // Convergence in Delta units: the exact (last decide − last failure
  // completion) / Delta for this run — the last decide may coincide with
  // the failed access's completion, so only the arithmetic is asserted.
  EXPECT_DOUBLE_EQ(
      metrics.convergence_after_failures_in_delta(kDelta),
      static_cast<double>(outcome.last_decision -
                          injector->last_failure_completion()) /
          static_cast<double>(kDelta));

  // Solo fast path: one proposer decides in round 0 with no delay.
  obs::TraceSink solo;
  core::run_consensus({1}, kDelta, sim::make_fixed_timing(kDelta), 1,
                      sim::kTimeNever, &solo);
  const obs::TraceMetrics solo_metrics = obs::compute_metrics(solo);
  EXPECT_EQ(solo_metrics.decides, 1u);
  EXPECT_EQ(solo_metrics.fast_path_decides, 1u);
  EXPECT_DOUBLE_EQ(solo_metrics.fast_path_hit_rate(), 1.0);
  EXPECT_EQ(solo_metrics.delays, 0u);
  EXPECT_EQ(solo_metrics.reads + solo_metrics.writes, 7u);
}

// Satellite bugfix: rt::FaultInjector must fire identically for identical
// (seed, per-point visit sequence) — and distinct points must own distinct
// streams (the old hashed-counter scheme gave every point the same one).
TEST(RtFaultInjector, DeterministicPerPointStreams) {
  constexpr int kVisits = 200;
  auto pattern = [](std::uint64_t seed, const char* point) {
    rt::FaultInjector faults(seed);
    faults.configure("a", {.probability = 0.5, .stall = rt::Nanos{0}});
    faults.configure("b", {.probability = 0.5, .stall = rt::Nanos{0}});
    std::vector<bool> fired;
    for (int i = 0; i < kVisits; ++i) fired.push_back(faults.maybe_stall(point));
    return fired;
  };

  // Identical (seed, visit sequence) => identical firing.
  EXPECT_EQ(pattern(42, "a"), pattern(42, "a"));
  EXPECT_EQ(pattern(42, "b"), pattern(42, "b"));
  // Distinct points draw from decorrelated streams.
  EXPECT_NE(pattern(42, "a"), pattern(42, "b"));
  // Distinct seeds differ.
  EXPECT_NE(pattern(42, "a"), pattern(43, "a"));

  // Interleaving visits to other points does not disturb a point's stream.
  rt::FaultInjector faults(42);
  faults.configure("a", {.probability = 0.5, .stall = rt::Nanos{0}});
  faults.configure("b", {.probability = 0.5, .stall = rt::Nanos{0}});
  std::vector<bool> fired_a;
  for (int i = 0; i < kVisits; ++i) {
    fired_a.push_back(faults.maybe_stall("a"));
    faults.maybe_stall("b");
    faults.maybe_stall("b");
  }
  EXPECT_EQ(fired_a, pattern(42, "a"));
}

TEST(RtFaultInjector, StallsAppearInTrace) {
  obs::TraceSink sink;
  rt::FaultInjector faults(1);
  faults.set_trace_sink(&sink);
  faults.configure("gate", {.stall = rt::Nanos{0}, .always_on_visit = 2});
  EXPECT_FALSE(faults.maybe_stall("gate"));
  EXPECT_TRUE(faults.maybe_stall("gate"));
  EXPECT_FALSE(faults.maybe_stall("gate"));
  // Each stall emits the kStall instant plus a kCounter sample carrying
  // the point's running totals (fired count, stalled ns).
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].kind, obs::EventKind::kStall);
  EXPECT_EQ(sink[0].b, 2);  // the firing visit index
  EXPECT_EQ(sink.label(sink[0].label), "gate");
  EXPECT_EQ(sink[1].kind, obs::EventKind::kCounter);
  EXPECT_EQ(sink[1].a, 1);  // first stall at this point
  EXPECT_EQ(sink[1].b, 0);  // zero-length stall: no ns accumulated
  EXPECT_EQ(sink.label(sink[1].label), "gate");
  EXPECT_EQ(faults.point_stalls("gate"), 1u);
  EXPECT_EQ(faults.point_stalled_ns("gate"), 0u);
}

}  // namespace
}  // namespace tfr
