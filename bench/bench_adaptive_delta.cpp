// E21 — optimistic(Δ) (§1.2, §3.3 — "adjust optimistic(Δ) ... similar
// to TCP congestion control"): first a sweep of the assumed Δ showing
// that safety never depends on it while speed does, then one
// DeltaController seam (src/adapt/) feeding the sim consensus delay(Δ)
// and the ABD retry windows, measuring what adaptation buys and proving
// what it cannot cost.  Claims under test:
//   * a small assumed Δ is safe and fast: under steps that are usually
//     1..20 but spike to 1000 2% of the time, consensus decides and
//     Algorithm 3 enters its critical section far more often at Δ <= 50
//     than at the pessimistic 1000, with zero violations at every Δ
//     (the mutex cell runs the shipped rt Algorithm 3 through the shim,
//     mutex/workload_sim.hpp);
//   * decision time tracks the environment, not the engineered worst
//     case: under a fast/slow/fast regime drift the adaptive rows decide
//     far faster than the static pessimistic-Δ row and complete more
//     instances in the same virtual time, and the AIMD estimate settles
//     far below the pessimistic bound;
//   * the TimelinessEstimator converges after each regime switch — the
//     estimate reaches the new oracle δ within a bounded number of
//     instances on the way up, and decays back within a bounded number
//     on the way down;
//   * safety is estimate-independent: agreement/validity violations are
//     exactly zero in EVERY cell — swept, adaptive, oracle-pinned,
//     pessimistic — under drift and under the E19 acceptance fault mix
//     (tfr_mcheck --check tfr-mutex-mistuned-n2 exhausts the same claim
//     on small executions);
//   * adaptive ABD ack windows ride the E19 fault mix with a bounded
//     retry amplification and no loss of linearizability.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "tfr/adapt/controller.hpp"
#include "tfr/adapt/observe.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;

namespace {

// ---------------------------------------------------------------- sweep --

// What an engineer who must cover preemption and worst-case contention
// picks as Δ; every step of the sweep and of the drift stays within it.
constexpr sim::Duration kPessimistic = 1000;
constexpr sim::Duration kCommonCost = 20;  // typical sweep step cost

std::unique_ptr<sim::TimingModel> spiky_timing() {
  auto injector = std::make_unique<sim::FailureInjector>(
      sim::make_uniform_timing(1, kCommonCost), kCommonCost);
  // 2% of steps spike to up to 50x the common cost — these are timing
  // failures w.r.t. small assumed deltas but legal w.r.t. kPessimistic.
  injector->set_random_failures(0.02, kPessimistic);
  return injector;
}

// ---------------------------------------------------------------- drift --

// The drifting environment: fast (uniform [1,20]) for the first stretch,
// a slow regime (uniform [1,200]) in the middle, then fast again.  The
// oracle δ at any instant is phase_at(now).hi.
constexpr sim::Duration kFastHi = 20;
constexpr sim::Duration kSlowHi = 200;
constexpr sim::Time kT1 = 10'000;   // fast -> slow
constexpr sim::Time kT2 = 30'000;   // slow -> fast
constexpr sim::Time kEnd = 50'000;  // row horizon (virtual time)

std::vector<sim::TimingPhase> drift_phases() {
  return {{.start = 0, .lo = 1, .hi = kFastHi},
          {.start = kT1, .lo = 1, .hi = kSlowHi},
          {.start = kT2, .lo = 1, .hi = kFastHi}};
}

enum class RowKind { kAimd, kTimeliness, kOracle, kPessimistic };

const char* row_name(RowKind kind) {
  switch (kind) {
    case RowKind::kAimd: return "aimd";
    case RowKind::kTimeliness: return "timeliness";
    case RowKind::kOracle: return "oracle";
    case RowKind::kPessimistic: return "pessimistic";
  }
  return "?";
}

struct DriftRow {
  std::uint64_t violations = 0;
  std::uint64_t instances = 0;
  std::uint64_t failures = 0;
  std::uint64_t cleans = 0;
  Samples decide[3];          ///< decide latency per regime, ticks
  sim::Duration est_last[3] = {0, 0, 0};  ///< estimate at regime end
  // TimelinessEstimator convergence, in instances after each switch:
  // up = first estimate >= the new (larger) oracle hi after kT1,
  // down = first estimate <= 4x the fast hi after kT2.  -1 = never.
  std::int64_t converge_up = -1;
  std::int64_t converge_down = -1;
};

int regime_of(sim::Time now) { return now >= kT2 ? 2 : now >= kT1 ? 1 : 0; }

/// One drift run: back-to-back 2-process consensus instances on a single
/// virtual clock until the horizon.  Each instance runs to Idle — both
/// participants terminate after deciding — so no coroutine frame can
/// outlive the instance's registers (RegisterSpace lifetime contract).
DriftRow run_drift(RowKind kind, std::uint64_t seed) {
  // Controllers must outlive the Simulation (the timing decorator and the
  // per-instance algorithm both point at them).
  adapt::Aimd aimd({.initial = 1,
                    .floor = 1,
                    .ceiling = kPessimistic,
                    .grow_factor = 2.0,
                    .decay_step = 4,
                    .clean_threshold = 2});
  adapt::TimelinessEstimator timeliness({.initial = 1,
                                         .floor = 1,
                                         .ceiling = kPessimistic,
                                         .window = 64,
                                         .quantile = 1.0,
                                         .headroom = 2.0,
                                         .grow_factor = 2.0,
                                         .decay_step = 8,
                                         .clean_threshold = 1});
  adapt::ManualDelta oracle{kFastHi};
  adapt::DeltaController* controller = nullptr;
  switch (kind) {
    case RowKind::kAimd: controller = &aimd; break;
    case RowKind::kTimeliness: controller = &timeliness; break;
    case RowKind::kOracle: controller = &oracle; break;
    case RowKind::kPessimistic: controller = nullptr; break;
  }

  auto phased = std::make_unique<sim::PhasedTiming>(drift_phases());
  sim::PhasedTiming* oracle_view = phased.get();  // outlives the move below
  std::unique_ptr<sim::TimingModel> timing = std::move(phased);
  if (kind == RowKind::kTimeliness) {
    // Fold the ever-growing pid space into 4 live channels; see
    // ObservingTiming for why stale windows must not linger.
    timing = std::make_unique<adapt::ObservingTiming>(std::move(timing),
                                                      &timeliness, 4);
  }
  sim::Simulation s(std::move(timing), {.seed = seed});

  DriftRow row;
  while (s.now() < kEnd && row.instances < 4000) {
    if (kind == RowKind::kOracle)
      oracle.set(oracle_view->phase_at(s.now()).hi);
    const sim::Duration est =
        controller != nullptr ? controller->current() : kPessimistic;
    const sim::Time start = s.now();
    const int regime = regime_of(start);
    if (kind == RowKind::kTimeliness && regime == 1 &&
        row.converge_up < 0 && est >= kSlowHi) {
      row.converge_up = static_cast<std::int64_t>(row.instances);
    }
    if (kind == RowKind::kTimeliness && regime == 2 &&
        row.converge_down < 0 && est <= 4 * kFastHi) {
      row.converge_down = static_cast<std::int64_t>(row.instances);
    }

    core::SimConsensus consensus(s.space(), kPessimistic);
    consensus.set_delta_controller(controller);
    consensus.monitor().throw_on_violation(false);
    for (int input : {0, 1}) {
      s.spawn(
          [&consensus, input](sim::Env env) {
            return consensus.participant(env, input);
          },
          /*start=*/s.now());
    }
    s.run();  // to Idle: both participants decided and terminated

    row.violations += consensus.monitor().agreement_violations() +
                      consensus.monitor().validity_violations();
    ++row.instances;
    row.decide[regime].add(
        static_cast<double>(consensus.monitor().last_decision_time() - start));
    row.est_last[regime] = est;
  }
  // Reset convergence counters to "instances after the switch".
  if (row.converge_up >= 0) {
    std::int64_t before = 0;
    for (std::size_t r = 0; r < 1; ++r)
      before += static_cast<std::int64_t>(row.decide[r].count());
    row.converge_up -= before;
  }
  if (row.converge_down >= 0) {
    std::int64_t before = static_cast<std::int64_t>(row.decide[0].count()) +
                          static_cast<std::int64_t>(row.decide[1].count());
    row.converge_down -= before;
  }
  if (controller != nullptr) {
    row.failures = controller->failure_events();
    row.cleans = controller->clean_events();
  }
  return row;
}

// ------------------------------------------------------------------ msg --

constexpr sim::Duration kStep = 50;  // E19's per-channel access cost bound

/// The engineer who could not tune: cover the worst case with the
/// maximum window (what a deployment does when nobody measured RTTs).
msg::RetryPolicy pessimistic_policy() {
  msg::RetryPolicy policy = bench::hardened_retry(kStep);
  policy.timeout = 320 * kStep;
  return policy;
}

/// The same discipline with the initial window derived from the shared
/// estimate instead of an engineered guess.
msg::RetryPolicy adaptive_policy() {
  msg::RetryPolicy policy = bench::hardened_retry(kStep);
  policy.timeout_per_delta = 2.0;
  return policy;
}

/// The ABD controller is RTT-driven (the client reports each server's
/// first-window round trip as an observation): the window tracks 2x the
/// windowed p90 RTT.  A pure AIMD policy would overshoot here — under a
/// 20% drop rate expiries keep firing at ANY window size, so growing on
/// every expiry runs the estimate into the ceiling; the estimator's
/// boost also grows on expiry but decays as soon as quorums land.
adapt::TimelinessEstimator::Config abd_controller_config() {
  return {.initial = 2 * kStep,
          .floor = kStep,
          .ceiling = 320 * kStep,
          .window = 32,
          .quantile = 0.9,
          .headroom = 2.0,
          .grow_factor = 2.0,
          .decay_step = kStep,
          .clean_threshold = 2,
          .boost_cap = 2.0};
}

/// The E19 acceptance-criterion fault mix: 20% drop, 5% duplicate,
/// reorder on.
msg::ChannelFaults acceptance_faults() {
  msg::ChannelFaults faults;
  faults.drop = 0.20;
  faults.duplicate = 0.05;
  faults.reorder = 0.25;
  faults.reorder_hold = 4 * kStep;
  return faults;
}

sim::Process abd_workload(sim::Env env, msg::AbdClient& client, int reg,
                          std::int64_t value, int* done, sim::Time* finish) {
  co_await client.write(env, reg, value);
  co_await client.read(env, reg);
  ++*done;
  if (env.now() > *finish) *finish = env.now();
}

struct AbdRun {
  bool all_done = false;
  bool linearizable = false;
  std::uint64_t safety_violations = 0;
  std::uint64_t operations = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  sim::Time finish = -1;
  sim::Duration estimate = 0;  ///< controller estimate after the run
};

/// One n=3 ABD run (every node writes then reads one register) under the
/// acceptance fault mix; with `controller` set, all three clients share it
/// (one virtual clock — the single-threaded Aimd is safe here).
AbdRun run_abd(const msg::RetryPolicy& policy,
               adapt::DeltaController* controller, std::uint64_t net_seed,
               std::uint64_t seed) {
  sim::Simulation s(sim::make_uniform_timing(1, kStep), {.seed = seed});
  const int n = 3;
  msg::Network net(s.space(), 2 * n);
  msg::NetAdversary adversary(net_seed);
  adversary.set_default_faults(acceptance_faults());
  adversary.arm(s);
  net.set_adversary(&adversary);
  msg::ConvergenceMonitor monitor;
  monitor.set_adversary(&adversary);

  int done = 0;
  sim::Time finish = -1;
  std::vector<std::unique_ptr<msg::AbdClient>> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<msg::AbdClient>(net, i, n, policy));
    clients.back()->set_monitor(&monitor);
    clients.back()->set_delta_controller(controller);
  }
  for (int i = 0; i < n; ++i) {
    s.spawn([&clients, &done, &finish, i](sim::Env env) {
      return abd_workload(env, *clients[static_cast<std::size_t>(i)], 1,
                          100 + i, &done, &finish);
    });
  }
  for (int i = 0; i < n; ++i) {
    s.spawn(
        [&net, i, n](sim::Env env) { return msg::abd_server(env, net, i, n); });
  }
  s.run(8'000'000'000, [&] { return done == n; });

  AbdRun out;
  out.all_done = done == n;
  out.linearizable = monitor.check().linearizable;
  out.safety_violations = monitor.safety_violations();
  for (const auto& c : clients) {
    out.operations += c->operations();
    out.retries += c->retries();
    out.timeouts += c->timeouts();
  }
  out.finish = finish;
  out.estimate = controller != nullptr ? controller->current() : 0;
  return out;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E21, "sections 1.2, 3.3 (adaptive optimistic delta)",
                     bench::Tier::kSmoke,
                     "optimistic(delta): safety is free at any assumed "
                     "delta, and one adaptive controller seam tunes it "
                     "under drifting step times and fault-mix retry "
                     "windows") {
  // (a) the assumed-delta sweep under 2% spikes.
  Table sweep("assumed delta sweep (true pessimistic bound = 1000, "
              "typical step = 1..20, 2% spikes)");
  sweep.header({"assumed delta", "consensus decide time (mean)",
                "mutex CS entries in 200k ticks", "ME violations"});

  double best_small_delta_time = 1e18;
  double pessimistic_time = 0;
  std::uint64_t best_small_delta_entries = 0;
  std::uint64_t pessimistic_entries = 0;
  std::uint64_t sweep_violations = 0;

  for (const sim::Duration assumed : {10, 20, 50, 200, 1000}) {
    Samples decide_times;
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const auto out = core::run_consensus({0, 1, 0, 1}, assumed,
                                           spiky_timing(), seed, 50'000'000);
      if (out.all_decided)
        decide_times.add(static_cast<double>(out.last_decision));
    }
    std::uint64_t entries = 0;
    std::uint64_t violations = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto result = mutex::run_mutex_workload(
          [assumed] { return mutex::make_shim_lock("tfr(sf)", 4, assumed); },
          mutex::WorkloadConfig{.processes = 4,
                                .sessions = 0,
                                .cs_time = 20,
                                .ncs_time = 20,
                                .tolerate_violations = true},
          spiky_timing(), seed, 200'000);
      entries += result.cs_entries;
      violations += result.violations;
    }
    sweep_violations += violations;
    if (assumed <= 50) {
      best_small_delta_time =
          std::min(best_small_delta_time, decide_times.mean());
      best_small_delta_entries = std::max(best_small_delta_entries, entries);
    }
    if (assumed == kPessimistic) {
      pessimistic_time = decide_times.mean();
      pessimistic_entries = entries;
    }
    sweep.row({Table::fmt(static_cast<long long>(assumed)),
               Table::fmt(decide_times.mean(), 1),
               Table::fmt(static_cast<unsigned long long>(entries)),
               Table::fmt(static_cast<unsigned long long>(violations))});
  }
  sweep.print(rec.out());

  rec.metric("sweep.violations", static_cast<double>(sweep_violations));
  rec.metric("sweep.optimistic.decide_time.best_small_delta",
             best_small_delta_time);
  rec.metric("sweep.pessimistic.decide_time", pessimistic_time);
  rec.metric("sweep.optimistic.cs_entries.best_small_delta",
             static_cast<double>(best_small_delta_entries));
  rec.metric("sweep.pessimistic.cs_entries",
             static_cast<double>(pessimistic_entries));
  rec.expect(sweep_violations == 0,
             "safety never depends on the assumed delta "
             "(0 violations across the sweep)");
  rec.expect(best_small_delta_time * 2 < pessimistic_time,
             "optimistic delta at least halves consensus decision time "
             "vs the pessimistic bound");
  rec.expect(best_small_delta_entries > 2 * pessimistic_entries,
             "optimistic delta more than doubles mutex throughput");

  // (b) drifting step times: adaptive vs oracle vs pessimistic consensus.
  constexpr std::uint64_t kSeeds = 3;
  Table drift("consensus under drift: fast[1,20] -> slow[1,200] -> fast, "
              "2 procs, 3 seeds");
  drift.header({"row", "instances", "violations", "decide fast (mean)",
                "decide slow (mean)", "est @fast1/slow/fast2",
                "grow/clean events"});
  DriftRow total[4];
  std::uint64_t drift_violations = 0;
  for (const RowKind kind : {RowKind::kAimd, RowKind::kTimeliness,
                             RowKind::kOracle, RowKind::kPessimistic}) {
    DriftRow& agg = total[static_cast<int>(kind)];
    std::int64_t worst_up = -1, worst_down = -1;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const DriftRow r = run_drift(kind, seed);
      agg.violations += r.violations;
      agg.instances += r.instances;
      agg.failures += r.failures;
      agg.cleans += r.cleans;
      for (int g = 0; g < 3; ++g) {
        for (std::size_t i = 0; i < r.decide[g].count(); ++i)
          agg.decide[g].add(r.decide[g].values()[i]);
        agg.est_last[g] = std::max(agg.est_last[g], r.est_last[g]);
      }
      worst_up = std::max(worst_up, r.converge_up);
      worst_down = std::max(worst_down, r.converge_down);
    }
    agg.converge_up = worst_up;
    agg.converge_down = worst_down;
    drift_violations += agg.violations;
    drift.row({row_name(kind),
               Table::fmt(static_cast<unsigned long long>(agg.instances)),
               Table::fmt(static_cast<unsigned long long>(agg.violations)),
               Table::fmt(agg.decide[0].mean(), 1),
               Table::fmt(agg.decide[1].mean(), 1),
               Table::fmt(static_cast<long long>(agg.est_last[0])) + "/" +
                   Table::fmt(static_cast<long long>(agg.est_last[1])) + "/" +
                   Table::fmt(static_cast<long long>(agg.est_last[2])),
               Table::fmt(static_cast<unsigned long long>(agg.failures)) +
                   "/" +
                   Table::fmt(static_cast<unsigned long long>(agg.cleans))});
  }
  drift.print(rec.out());
  const DriftRow& aimd = total[static_cast<int>(RowKind::kAimd)];
  const DriftRow& timeliness = total[static_cast<int>(RowKind::kTimeliness)];
  const DriftRow& oracle = total[static_cast<int>(RowKind::kOracle)];
  const DriftRow& pessimistic =
      total[static_cast<int>(RowKind::kPessimistic)];
  rec.metric("drift.violations", static_cast<double>(drift_violations));
  rec.metric("drift.aimd.instances", static_cast<double>(aimd.instances));
  rec.metric("drift.pessimistic.instances",
             static_cast<double>(pessimistic.instances));
  rec.metric("drift.aimd.decide_fast_mean", aimd.decide[0].mean());
  rec.metric("drift.aimd.decide_slow_mean", aimd.decide[1].mean());
  rec.metric("drift.oracle.decide_fast_mean", oracle.decide[0].mean());
  rec.metric("drift.pessimistic.decide_fast_mean",
             pessimistic.decide[0].mean());
  rec.metric("drift.pessimistic.decide_slow_mean",
             pessimistic.decide[1].mean());
  rec.metric("drift.aimd.est_final", static_cast<double>(aimd.est_last[2]));
  rec.metric("drift.timeliness.est_slow",
             static_cast<double>(timeliness.est_last[1]));
  rec.metric("drift.timeliness.est_fast_final",
             static_cast<double>(timeliness.est_last[2]));
  rec.metric("drift.timeliness.converge_up_instances",
             static_cast<double>(timeliness.converge_up));
  rec.metric("drift.timeliness.converge_down_instances",
             static_cast<double>(timeliness.converge_down));
  rec.expect(drift_violations == 0,
             "agreement and validity hold in every drift cell "
             "(safety is estimate-independent)");
  rec.expect(aimd.decide[0].mean() < pessimistic.decide[0].mean() &&
                 aimd.decide[1].mean() < pessimistic.decide[1].mean(),
             "adaptive decides faster than the pessimistic bound in every "
             "regime");
  rec.expect(aimd.instances > 2 * pessimistic.instances,
             "adaptation at least doubles decided instances per unit time "
             "under drift");
  rec.expect(aimd.est_last[2] <= kSlowHi,
             "the AIMD estimate settles at or below 200 after the drift, "
             "far below the pessimistic 1000");
  rec.expect(timeliness.converge_up >= 0 && timeliness.converge_up <= 12,
             "the estimator reaches the new oracle delta within 12 "
             "instances of the slow switch");
  rec.expect(timeliness.converge_down >= 0 && timeliness.converge_down <= 24,
             "the estimate decays back within 24 instances of recovery");
  rec.expect(timeliness.est_last[1] >= kSlowHi &&
                 timeliness.est_last[1] <= kPessimistic,
             "the slow-regime estimate covers the oracle delta without "
             "exceeding the pessimistic bound");

  // (c) adaptive ABD ack windows under the E19 acceptance fault mix.
  adapt::TimelinessEstimator abd_controller(abd_controller_config());
  Table abd("ABD under 20% drop + 5% dup + 25% reorder: adaptive vs "
            "static windows (n = 3)");
  abd.header({"windows", "completed", "linearizable", "violations",
              "finish /step (mean)", "retries/op", "expiries"});
  struct Cell {
    const char* name = "";
    bool done = true;
    bool linearizable = true;
    std::uint64_t violations = 0;
    std::uint64_t operations = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    Samples finishes{};
    double finish_steps() const {
      return finishes.mean() / static_cast<double>(kStep);
    }
    double retries_per_op() const {
      return static_cast<double>(retries) / static_cast<double>(operations);
    }
  };
  Cell cells[3] = {{.name = "tuned static (40 steps)"},
                   {.name = "pessimistic static (320 steps)"},
                   {.name = "adaptive (2.0 x estimate)"}};
  for (int row = 0; row < 3; ++row) {
    Cell& cell = cells[row];
    const msg::RetryPolicy policy = row == 0   ? bench::hardened_retry(kStep)
                                    : row == 1 ? pessimistic_policy()
                                               : adaptive_policy();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const AbdRun r = run_abd(policy, row == 2 ? &abd_controller : nullptr,
                               40 + seed, seed);
      cell.done &= r.all_done;
      cell.linearizable &= r.linearizable;
      cell.violations += r.safety_violations;
      cell.operations += r.operations;
      cell.retries += r.retries;
      cell.timeouts += r.timeouts;
      if (r.finish >= 0) cell.finishes.add(static_cast<double>(r.finish));
    }
    abd.row({cell.name, cell.done ? "yes" : "NO",
             cell.linearizable ? "yes" : "NO",
             Table::fmt(static_cast<unsigned long long>(cell.violations)),
             Table::fmt(cell.finish_steps(), 1),
             Table::fmt(cell.retries_per_op(), 2),
             Table::fmt(static_cast<unsigned long long>(cell.timeouts))});
  }
  abd.print(rec.out());
  const std::uint64_t abd_violations =
      cells[0].violations + cells[1].violations + cells[2].violations;
  rec.metric("abd.violations", static_cast<double>(abd_violations));
  rec.metric("abd.tuned.finish_steps", cells[0].finish_steps());
  rec.metric("abd.pessimistic.finish_steps", cells[1].finish_steps());
  rec.metric("abd.adaptive.finish_steps", cells[2].finish_steps());
  rec.metric("abd.adaptive.retries_per_op", cells[2].retries_per_op());
  rec.metric("abd.adaptive.estimate_steps",
             static_cast<double>(abd_controller.current()) /
                 static_cast<double>(kStep));
  rec.expect(cells[0].done && cells[1].done && cells[2].done &&
                 cells[0].linearizable && cells[1].linearizable &&
                 cells[2].linearizable && abd_violations == 0,
             "every window discipline completes linearizably under the "
             "acceptance mix");
  rec.expect(cells[2].finishes.mean() < cells[1].finishes.mean(),
             "estimate-derived windows beat the untuned pessimistic cover "
             "(adaptation replaces hand-tuning)");
  rec.expect(cells[2].finishes.mean() <= 3.0 * cells[0].finishes.mean(),
             "adaptive windows stay within 3x of the hand-tuned sweet "
             "spot");
  rec.expect(cells[2].retries_per_op() <= 12.0,
             "adaptive retry amplification stays bounded (<= 12 sends/op)");

  // The one number the baseline pins exactly: zero safety violations in
  // every cell of the experiment.
  const std::uint64_t violations =
      sweep_violations + drift_violations + abd_violations;
  rec.metric("violations.total", static_cast<double>(violations));
  rec.expect(violations == 0,
             "no safety violation anywhere: adaptation is performance-only");
}
