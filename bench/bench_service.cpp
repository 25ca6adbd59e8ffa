// E20 — shard-scale service scenario: millions of open-loop client
// sessions against S shards of (leader election + ABD register), with
// bounded queues, explicit backpressure and batch replication (ROADMAP
// north star; docs/MODEL.md "Service scenario").  Claims under test:
//   * scale: 4 shards serve 1M sessions to completion with single-digit
//     thousands of quorum operations (batching amortises the ABD round
//     trips) and bounded tail latency in Δ units;
//   * overload is explicit, not silent: past saturation the bounded
//     queues reject, the retry storm stays within the amplification
//     bound max_attempts, every session is either served or counted
//     shed, and throughput holds at the service capacity;
//   * partial outages stay partial: cutting the leaders of a shard
//     subset leaves the others serving, safety holds throughout
//     (every shard history linearizes), and after the heal the backlog
//     drains and every stalled quorum op completes within the
//     convergence bound.

#include <cstdint>

#include "bench_util.hpp"
#include "tfr/service/service.hpp"

using namespace tfr;

namespace {

constexpr sim::Duration kStep = 50;  // per-channel-access cost bound (Δ)

service::ServiceConfig base_config() {
  service::ServiceConfig config;
  config.shards = 4;
  config.step = kStep;
  config.sim_seed = 1;
  config.shard.replicas = 3;
  config.shard.delta = kStep;
  config.shard.abd_retry = bench::hardened_retry(kStep);
  config.shard.batch.max_batch = 256;
  config.shard.batch.max_wait = 4 * kStep;
  config.shard.queue_capacity = 4096;
  config.shard.drain_hint = 8;
  config.shard.poll_every = kStep;
  config.load.tick = kStep;
  config.load.retry = bench::hardened_retry(kStep);
  config.load.max_attempts = 6;
  config.load.route_seed = 11;
  return config;
}

double steps(double ticks) { return ticks / static_cast<double>(kStep); }

}  // namespace

TFR_BENCH_EXPERIMENT(E20, "ROADMAP north star (service scale)",
                     bench::Tier::kSmoke,
                     "shard-scale service: 4 shards x 1M open-loop "
                     "sessions, explicit backpressure, partial outage "
                     "with bounded recovery") {
  // (a) steady state: 1M sessions at ~74% of the batched quorum capacity.
  service::ServiceConfig steady = base_config();
  steady.load.sessions = 1'000'000;
  steady.load.arrivals_per_tick = 0.40;
  const service::ServiceReport st = service::run_service(steady);

  Table scale("steady state: 4 shards x 3 replicas, 1M sessions at 0.40/tick");
  scale.header({"served", "shed", "batches", "quorum ops", "throughput /d",
                "p50 /d", "p99 /d", "p999 /d"});
  scale.row({Table::fmt(static_cast<unsigned long long>(st.served)),
             Table::fmt(static_cast<unsigned long long>(st.shed)),
             Table::fmt(static_cast<unsigned long long>(st.batches)),
             Table::fmt(static_cast<unsigned long long>(st.abd_operations)),
             Table::fmt(st.throughput_per_delta(kStep), 2),
             Table::fmt(steps(st.latency.percentile(50)), 2),
             Table::fmt(steps(st.latency.percentile(99)), 2),
             Table::fmt(steps(st.latency.percentile(99.9)), 2)});
  scale.print(rec.out());
  rec.metric("steady.served", static_cast<double>(st.served));
  rec.metric("steady.batches", static_cast<double>(st.batches));
  rec.metric("steady.abd_ops", static_cast<double>(st.abd_operations));
  rec.metric("steady.throughput_per_delta", st.throughput_per_delta(kStep));
  rec.metric("steady.latency_p99_steps", steps(st.latency.percentile(99)),
             "delta");
  rec.metric("steady.latency_p999_steps", steps(st.latency.percentile(99.9)),
             "delta");
  rec.metric("steady.amplification", st.amplification);
  rec.metric("steady.safety_violations",
             static_cast<double>(st.safety_violations +
                                 st.readback_mismatches));
  rec.expect(st.all_elected && st.complete() && st.shed == 0,
             "all 1M sessions served (none shed) after every shard elects");
  rec.expect(st.rejected == 0 && st.amplification == 1.0,
             "below saturation the bounded queues never push back");
  rec.expect(st.linearizable && st.safety_violations == 0 &&
                 st.readback_mismatches == 0,
             "every shard history linearizes at 1M-session scale");
  rec.expect(st.abd_operations < st.served / 50,
             "batching amortises replication >50x (quorum ops << sessions)");
  rec.expect(steps(st.latency.percentile(99.9)) < 500,
             "tail latency stays bounded (p999 under 500 delta)");

  // (b) saturation: offered load ~2x the batched capacity; the queues
  // must reject, the storm must stay within the amplification bound, and
  // throughput must hold at capacity instead of collapsing.
  service::ServiceConfig sat = base_config();
  sat.load.sessions = 240'000;
  sat.load.arrivals_per_tick = 1.0;
  sat.shard.queue_capacity = 1024;
  const service::ServiceReport sa = service::run_service(sat);

  Table storm("saturation: 240k sessions at 1.0/tick (~2x capacity)");
  storm.header({"served", "shed", "rejected", "amplification", "max depth",
                "throughput /d"});
  storm.row({Table::fmt(static_cast<unsigned long long>(sa.served)),
             Table::fmt(static_cast<unsigned long long>(sa.shed)),
             Table::fmt(static_cast<unsigned long long>(sa.rejected)),
             Table::fmt(sa.amplification, 3),
             Table::fmt(static_cast<unsigned long long>(sa.max_queue_depth)),
             Table::fmt(sa.throughput_per_delta(kStep), 2)});
  storm.print(rec.out());
  rec.metric("sat.served", static_cast<double>(sa.served));
  rec.metric("sat.shed", static_cast<double>(sa.shed));
  rec.metric("sat.rejected", static_cast<double>(sa.rejected));
  rec.metric("sat.amplification", sa.amplification);
  rec.metric("sat.throughput_per_delta", sa.throughput_per_delta(kStep));
  rec.metric("sat.safety_violations",
             static_cast<double>(sa.safety_violations +
                                 sa.readback_mismatches));
  rec.expect(sa.complete() && sa.rejected > 0 && sa.shed > 0,
             "overload is explicit: rejects and sheds, never lost sessions");
  rec.expect(sa.amplification > 1.0 &&
                 sa.amplification <=
                     static_cast<double>(sat.load.max_attempts),
             "the retry storm stays within the max_attempts bound");
  rec.expect(sa.max_queue_depth == sat.shard.queue_capacity,
             "the bounded queues actually fill (backpressure was real)");
  rec.expect(sa.throughput_per_delta(kStep) >
                 st.throughput_per_delta(kStep),
             "past saturation throughput holds at capacity (above the "
             "steady-state offered rate)");
  rec.expect(sa.linearizable && sa.safety_violations == 0 &&
                 sa.readback_mismatches == 0,
             "overload never costs safety");

  // (c) partial outage: cut the leaders of shards {1, 3} for 800 steps
  // mid-load; the other shards keep serving, and after the heal the
  // backlog drains and stalled quorum ops converge within the bound.
  service::ServiceConfig out = base_config();
  out.load.sessions = 120'000;
  out.load.arrivals_per_tick = 0.30;
  out.shard.queue_capacity = 1024;
  out.outage.shards = {1, 3};
  out.outage.begin = 200 * kStep;
  out.outage.heal = 1'000 * kStep;
  out.convergence_bound = 1'000 * kStep;
  const service::ServiceReport ou = service::run_service(out);

  Table heal("partial outage: shards {1,3} leaders cut for 800 steps");
  heal.header({"served", "shed", "rejected", "abd retries", "drain /d",
               "worst lag /d", "converged"});
  heal.row({Table::fmt(static_cast<unsigned long long>(ou.served)),
            Table::fmt(static_cast<unsigned long long>(ou.shed)),
            Table::fmt(static_cast<unsigned long long>(ou.rejected)),
            Table::fmt(static_cast<unsigned long long>(ou.abd_retries)),
            Table::fmt(steps(static_cast<double>(ou.heal_drain)), 2),
            Table::fmt(steps(static_cast<double>(ou.worst_lag)), 2),
            ou.converged ? "yes" : "NO"});
  heal.print(rec.out());
  rec.metric("outage.served", static_cast<double>(ou.served));
  rec.metric("outage.shed", static_cast<double>(ou.shed));
  rec.metric("outage.rejected", static_cast<double>(ou.rejected));
  rec.metric("outage.abd_retries", static_cast<double>(ou.abd_retries));
  rec.metric("outage.heal_drain_steps",
             steps(static_cast<double>(ou.heal_drain)), "delta");
  rec.metric("outage.worst_lag_steps",
             steps(static_cast<double>(ou.worst_lag)), "delta");
  rec.metric("outage.safety_violations",
             static_cast<double>(ou.safety_violations +
                                 ou.readback_mismatches));
  rec.expect(ou.complete() && ou.rejected > 0 && ou.abd_retries > 0,
             "the cut was real: backpressure and quorum retries on the "
             "affected shards");
  rec.expect(ou.served > ou.sessions / 2,
             "the outage stays partial: unaffected shards keep serving");
  // The drain works off the queue backlog plus the deferred retry storm
  // (waves of bounced sessions re-arriving on their retry-after hints), so
  // its bound is looser than the per-op convergence bound: well under the
  // ~7000 steps the backlog survives when the frontend never recovers.
  rec.expect(ou.heal_drain >= 0 && ou.heal_drain <= 2'000 * kStep,
             "after the heal the backlog drains within 2000 delta");
  rec.expect(ou.converged && ou.unfinished == 0,
             "every stalled quorum op completes within the convergence "
             "bound of the heal");
  rec.expect(ou.linearizable && ou.safety_violations == 0 &&
                 ou.readback_mismatches == 0,
             "safety holds through the outage on every shard");
}
