// E22 — per-peer timeliness graphs + fast-quorum/fast-read ABD: the
// TimelinessEstimator's per-channel windows stop collapsing into one
// global estimate (Delporte-Gallet et al., timeliness graphs), so each
// server's ack window derives from its own channel and a phase waits only
// for the timely majority; on top, the Mostéfaoui–Raynal fast read skips
// the write-back round whenever every quorum ack carries the same tag.
// Both are the AbdClient's one discipline.  Claims under test:
//   * under a heterogeneous replica mix (one slow box, one lossy box)
//     every operation completes linearizably, and the fast read still
//     rides most reads despite the lossy replica;
//   * the fast read rides the clean path: > 80% of reads skip the
//     write-back in the clean cell, halving read phases;
//   * the timeliness graph classifies the slow box as the one straggler
//     and keeps the timely majority timely;
//   * none of it costs safety: linearizability holds and violations are
//     exactly zero in every cell — the mcheck ABD scenario explores the
//     skip-write-back read exhaustively, and this experiment pins the
//     exploration counters;
//   * the Shard seam serves the same heterogeneous mix with reads taking
//     the one-round path under batching/session load.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "tfr/adapt/controller.hpp"
#include "tfr/adapt/graph.hpp"
#include "tfr/mcheck/catalog.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/service/service.hpp"

using namespace tfr;

namespace {

constexpr sim::Duration kStep = 50;  // per-channel access cost bound

/// The E21 adaptive retry discipline: first window = 2.0 x the per-peer
/// estimate, small backoff.
msg::RetryPolicy adaptive_policy() {
  msg::RetryPolicy policy = bench::hardened_retry(kStep);
  policy.timeout_per_delta = 2.0;
  return policy;
}

adapt::TimelinessEstimator::Config estimator_config() {
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

/// The slow box: every message touching the replica is held an extra
/// [40, 60] steps each way — a straggler, not a crash.  The delay must
/// dwarf the timely round-trip (~10 steps): the per-peer window (sized
/// by the majority-th timely estimate, ~40 steps) then expires and
/// retries through the lossy replica instead of waiting ~100 steps for
/// the straggler's ack, and the straggler's estimate clears the 4x
/// classification threshold.
msg::ChannelFaults slow_faults() {
  msg::ChannelFaults faults;
  faults.delay = 1.0;
  faults.delay_min = 40 * kStep;
  faults.delay_max = 60 * kStep;
  return faults;
}

/// The lossy box: 30% of messages touching the replica vanish.
msg::ChannelFaults lossy_faults() {
  msg::ChannelFaults faults;
  faults.drop = 0.30;
  return faults;
}

constexpr int kSlowReplica = 1;
constexpr int kLossyReplica = 2;

/// Applies `faults` to every channel touching `endpoint`, both directions.
void fault_endpoint(msg::NetAdversary& adversary, int endpoint, int total,
                    const msg::ChannelFaults& faults) {
  for (int other = 0; other < total; ++other) {
    if (other == endpoint) continue;
    adversary.set_channel_faults(endpoint, other, faults);
    adversary.set_channel_faults(other, endpoint, faults);
  }
}

// ---------------------------------------------------------- client cell --

struct ClientRun {
  bool all_done = true;
  bool linearizable = true;
  std::uint64_t safety_violations = 0;
  std::uint64_t operations = 0;
  std::uint64_t retries = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_read_misses = 0;
  std::size_t stragglers = 0;   ///< graph classification after the run
  bool slow_is_straggler = false;
  Samples op_latency;           ///< per completed op, ticks

  /// Folds one seed's run into this aggregate.
  void add(const ClientRun& r) {
    all_done &= r.all_done;
    linearizable &= r.linearizable;
    safety_violations += r.safety_violations;
    operations += r.operations;
    retries += r.retries;
    fast_reads += r.fast_reads;
    fast_read_misses += r.fast_read_misses;
    stragglers = std::max(stragglers, r.stragglers);
    slow_is_straggler |= r.slow_is_straggler;
    for (double x : r.op_latency.values()) op_latency.add(x);
  }

  double steps_per_op() const {
    return op_latency.mean() / static_cast<double>(kStep);
  }
  double p99_steps() const {
    return op_latency.percentile(99) / static_cast<double>(kStep);
  }
  double p999_steps() const {
    return op_latency.percentile(99.9) / static_cast<double>(kStep);
  }
  double hit_rate() const {
    const double total = static_cast<double>(fast_reads + fast_read_misses);
    return total > 0 ? static_cast<double>(fast_reads) / total : 0.0;
  }
};

sim::Process rw_loop(sim::Env env, msg::AbdClient& client, int reg, int ops,
                     std::int64_t base, int* finished, Samples* latency) {
  for (int i = 0; i < ops; ++i) {
    sim::Time t0 = env.now();
    co_await client.write(env, reg, base + i);
    latency->add(static_cast<double>(env.now() - t0));
    t0 = env.now();
    co_await client.read(env, reg);
    latency->add(static_cast<double>(env.now() - t0));
  }
  ++*finished;
}

/// One n=3 run: two clients issuing `ops` write+read pairs each (the
/// second client is the concurrent writer that can force mixed-tag
/// quorums), all clients sharing one estimator so per-server channels
/// pool observations.  `heterogeneous` arms the slow + lossy boxes on the
/// two non-clean replicas' server endpoints.
ClientRun run_client(bool heterogeneous, int ops, std::uint64_t seed) {
  adapt::TimelinessEstimator estimator(estimator_config());
  sim::Simulation s(sim::make_uniform_timing(1, kStep), {.seed = seed});
  const int n = 3;
  msg::Network net(s.space(), 2 * n);
  msg::NetAdversary adversary(0xabdfa57ULL + seed);
  if (heterogeneous) {
    fault_endpoint(adversary, n + kSlowReplica, 2 * n, slow_faults());
    fault_endpoint(adversary, n + kLossyReplica, 2 * n, lossy_faults());
  }
  adversary.arm(s);
  net.set_adversary(&adversary);
  msg::ConvergenceMonitor monitor;
  monitor.set_adversary(&adversary);

  ClientRun out;
  int finished = 0;
  std::vector<std::unique_ptr<msg::AbdClient>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(
        std::make_unique<msg::AbdClient>(net, i, n, adaptive_policy()));
    clients.back()->set_monitor(&monitor);
    clients.back()->set_delta_controller(&estimator);
  }
  for (int i = 0; i < 2; ++i) {
    s.spawn([&clients, &out, &finished, i, ops](sim::Env env) {
      return rw_loop(env, *clients[static_cast<std::size_t>(i)], 1, ops,
                     100 * (i + 1), &finished, &out.op_latency);
    });
  }
  for (int i = 0; i < n; ++i) {
    s.spawn(
        [&net, i, n](sim::Env env) { return msg::abd_server(env, net, i, n); });
  }
  s.run(8'000'000'000, [&] { return finished == 2; });

  out.all_done = finished == 2;
  out.linearizable = monitor.check().linearizable;
  out.safety_violations = monitor.safety_violations();
  for (const auto& c : clients) {
    out.operations += c->operations();
    out.retries += c->retries();
    out.fast_reads += c->fast_reads();
    out.fast_read_misses += c->fast_read_misses();
  }
  const adapt::TimelinessGraph graph(estimator);
  out.stragglers = graph.stragglers();
  out.slow_is_straggler =
      graph.classify(kSlowReplica) == adapt::PeerClass::kStraggler;
  return out;
}

/// `seeds` runs of one cell, aggregated.
ClientRun run_cell(bool heterogeneous, int ops, std::uint64_t seeds) {
  ClientRun agg;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed)
    agg.add(run_client(heterogeneous, ops, seed));
  return agg;
}

// --------------------------------------------------------- service cell --

service::ServiceConfig service_config(adapt::DeltaController* controller) {
  service::ServiceConfig config;
  config.shards = 1;
  config.step = kStep;
  config.sim_seed = 1;
  config.shard.replicas = 3;
  config.shard.delta = kStep;
  config.shard.abd_retry = adaptive_policy();
  config.shard.batch.max_batch = 256;
  config.shard.batch.max_wait = 4 * kStep;
  config.shard.queue_capacity = 4096;
  config.shard.drain_hint = 8;
  config.shard.poll_every = kStep;
  config.shard.controller = controller;
  // The heterogeneous mix as replica boxes behind the Shard seam: the
  // slow and lossy replicas' *server* endpoints only, so the elected
  // frontend (replica 0) stays clean.
  config.shard.replica_faults.push_back(
      {.replica = kSlowReplica, .faults = slow_faults()});
  config.shard.replica_faults.push_back(
      {.replica = kLossyReplica, .faults = lossy_faults()});
  config.load.sessions = 8'000;
  config.load.arrivals_per_tick = 0.15;
  config.load.tick = kStep;
  config.load.retry = adaptive_policy();
  config.load.max_attempts = 6;
  config.load.route_seed = 11;
  return config;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E22, "timeliness graphs + fast quorums (ABD)",
                     bench::Tier::kSmoke,
                     "per-peer ack windows from timeliness graphs and the "
                     "Mostefaoui-Raynal fast read: stragglers stop sizing "
                     "quorum waits, clean reads take one round; safety "
                     "exhaustively checked") {
  constexpr int kOps = 120;       // write+read pairs per client per run
  constexpr std::uint64_t kSeeds = 3;

  // (a) heterogeneous mix: one slow box, one lossy box; (b) clean network:
  // the fast read's common path.
  const ClientRun het = run_cell(/*heterogeneous=*/true, kOps, kSeeds);
  const ClientRun clean = run_cell(/*heterogeneous=*/false, kOps, kSeeds);
  Table cells("ABD client, n=3, 2 clients x 120 write+read pairs x 3 seeds");
  cells.header({"network", "completed", "linearizable", "steps/op (mean)",
                "p99 /step", "p999 /step", "retries/op", "fast-read hit"});
  const auto row = [&cells](const char* name, const ClientRun& r) {
    cells.row({name, r.all_done ? "yes" : "NO", r.linearizable ? "yes" : "NO",
               Table::fmt(r.steps_per_op(), 1), Table::fmt(r.p99_steps(), 1),
               Table::fmt(r.p999_steps(), 1),
               Table::fmt(static_cast<double>(r.retries) /
                              static_cast<double>(r.operations), 2),
               Table::fmt(r.hit_rate(), 2)});
  };
  row("slow (+[40,60] steps) + lossy (30% drop) replicas", het);
  row("clean", clean);
  cells.print(rec.out());
  rec.metric("het.steps_per_op", het.steps_per_op());
  rec.metric("het.p99_steps", het.p99_steps());
  rec.metric("het.p999_steps", het.p999_steps());
  rec.metric("het.hit_rate", het.hit_rate());
  rec.metric("clean.steps_per_op", clean.steps_per_op());
  rec.metric("clean.hit_rate", clean.hit_rate());
  rec.expect(het.all_done && het.linearizable && clean.all_done &&
                 clean.linearizable,
             "both cells complete linearizably");
  rec.expect(het.slow_is_straggler && het.stragglers == 1,
             "the timeliness graph classifies exactly the slow box as a "
             "straggler");
  rec.expect(clean.hit_rate() > 0.8,
             "more than 80% of clean-path reads skip the write-back");

  // (c) the Shard seam under the same heterogeneous boxes.
  adapt::TimelinessEstimator svc_est(estimator_config());
  const service::ServiceReport svc =
      service::run_service(service_config(&svc_est));
  Table svc_table("service: 1 shard x 8k sessions, slow + lossy replica "
                  "boxes behind the Shard seam");
  svc_table.header({"served", "violations", "abd ops", "fast reads",
                    "p99 /step", "p999 /step"});
  const std::uint64_t violations_svc =
      svc.safety_violations + svc.readback_mismatches;
  svc_table.row(
      {Table::fmt(static_cast<unsigned long long>(svc.served)),
       Table::fmt(static_cast<unsigned long long>(violations_svc)),
       Table::fmt(static_cast<unsigned long long>(svc.abd_operations)),
       Table::fmt(static_cast<unsigned long long>(svc.abd_fast_reads)),
       Table::fmt(svc.latency.percentile(99) / static_cast<double>(kStep), 1),
       Table::fmt(svc.latency.percentile(99.9) / static_cast<double>(kStep),
                  1)});
  svc_table.print(rec.out());
  rec.metric("svc.p99_steps",
             svc.latency.percentile(99) / static_cast<double>(kStep));
  rec.metric("svc.p999_steps",
             svc.latency.percentile(99.9) / static_cast<double>(kStep));
  rec.metric("svc.fast_reads", static_cast<double>(svc.abd_fast_reads));
  rec.expect(svc.all_elected && svc.complete() && svc.linearizable,
             "the heterogeneous shard serves every session and its history "
             "linearizes");
  rec.expect(svc.abd_fast_reads > 0,
             "shard reads take the one-round path");

  // (d) exhaustive safety: the mcheck ABD scenario, counters pinned
  // exactly (deterministic DFS, jobs-parity checked in CI).
  const mcheck::NamedCheck abd_check =
      mcheck::catalog_entry("abd-n3-minority-down");
  const mcheck::CheckResult mc =
      mcheck::check(abd_check.scenario, abd_check.config);
  Table mc_table("mcheck abd scenario (n=3, one server crashed)");
  mc_table.header({"complete", "violation", "executions", "states"});
  mc_table.row({mc.stats.complete ? "yes" : "NO", mc.violation ? "YES" : "no",
                Table::fmt(static_cast<unsigned long long>(mc.stats.executions)),
                Table::fmt(static_cast<unsigned long long>(mc.stats.states))});
  mc_table.print(rec.out());
  rec.metric("mcheck.executions", static_cast<double>(mc.stats.executions));
  rec.metric("mcheck.states", static_cast<double>(mc.stats.states));
  rec.expect(mc.stats.complete && !mc.violation,
             "the schedule space is exhausted with no linearizability "
             "violation");

  // The number the baseline pins exactly: zero safety violations in every
  // cell of the experiment.
  const std::uint64_t violations =
      het.safety_violations + clean.safety_violations + violations_svc;
  rec.metric("violations.total", static_cast<double>(violations));
  rec.expect(violations == 0,
             "no safety violation anywhere: per-peer windows and fast "
             "reads are performance-only");
}
