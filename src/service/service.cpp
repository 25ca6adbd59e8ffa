#include "tfr/service/service.hpp"

#include <algorithm>

#include "tfr/sim/timing.hpp"

namespace tfr::service {

ServiceReport run_service(const ServiceConfig& config) {
  sim::Simulation s(sim::make_uniform_timing(1, config.step),
                    {.seed = config.sim_seed, .sink = config.sink});

  ServiceReport report;
  report.sessions = config.load.sessions;

  // --- Shards: spawn replicas; served sessions feed the latency samples.
  std::vector<std::unique_ptr<Shard>> shards;
  report.latency.reserve(static_cast<std::size_t>(config.load.sessions));
  for (int k = 0; k < config.shards; ++k) {
    ShardConfig sc = config.shard;
    sc.id = k;
    shards.push_back(std::make_unique<Shard>(s, sc));
    shards.back()->spawn([&report](const Request& request, sim::Time done) {
      ++report.served;
      report.latency.add(static_cast<double>(done - request.first_offered));
    });
  }

  // --- Boot: run until every shard's replicas agree on a leader.
  s.run_until(config.limit, [&shards] {
    return std::all_of(shards.begin(), shards.end(),
                       [](const auto& shard) { return shard->elected(); });
  });
  report.all_elected =
      std::all_of(shards.begin(), shards.end(),
                  [](const auto& shard) { return shard->elected(); });
  for (const auto& shard : shards)
    report.elected_at = std::max(report.elected_at, shard->elected_at());
  if (!report.all_elected) return report;

  report.workload_start = s.now();

  // --- Optional partial outage: cut each affected shard's leader client
  // endpoint for [begin, heal) after the workload starts.
  if (!config.outage.shards.empty()) {
    report.outage_heal = report.workload_start + config.outage.heal;
    for (const int k : config.outage.shards) {
      Shard& shard = *shards[static_cast<std::size_t>(k)];
      msg::Partition partition;
      partition.begin = report.workload_start + config.outage.begin;
      partition.heal = report.outage_heal;
      partition.group = {shard.leader()};
      shard.adversary().add_partition(partition);
      shard.adversary().arm(s);
      if (config.convergence_bound > 0)
        shard.monitor().set_bound(config.convergence_bound);
      shard.mark_outage(report.outage_heal);
    }
  }

  // --- Load: open-loop generator over the shard queues.
  std::vector<BoundedQueue*> queues;
  for (const auto& shard : shards) queues.push_back(&shard->queue());
  LoadGen gen(config.load, std::move(queues));
  s.spawn([&gen](sim::Env env) { return gen.run(env); }, s.now());
  s.run_until(config.limit, [&] {
    return gen.finished() && report.served + gen.shed() == config.load.sessions;
  });

  // --- Aggregate.
  report.shed = gen.shed();
  report.offered_pushes = gen.offered_pushes();
  report.rejected = gen.rejected();
  report.amplification = gen.amplification();
  report.max_retry_heap = gen.max_retry_heap();
  for (const auto& shard : shards) {
    report.max_queue_depth =
        std::max(report.max_queue_depth, shard->queue().max_depth());
    report.batches += shard->batches();
    report.size_flushes += shard->size_flushes();
    report.deadline_flushes += shard->deadline_flushes();
    report.abd_operations += shard->abd_operations();
    report.abd_retries += shard->abd_retries();
    report.abd_fast_reads += shard->abd_fast_reads();
    report.abd_fast_read_misses += shard->abd_fast_read_misses();
    report.boot_abd_operations += shard->boot_abd_operations();
    report.boot_abd_retries += shard->boot_abd_retries();
    report.readback_mismatches += shard->readback_mismatches();
    report.finished_at = std::max(report.finished_at, shard->last_served_at());
    const msg::ConvergenceMonitor::Report check = shard->monitor().check();
    report.linearizable &= check.linearizable;
    report.converged &= check.converged;
    report.unfinished += check.unfinished;
    report.worst_lag = std::max(report.worst_lag, check.worst_lag);
    report.safety_violations += shard->monitor().safety_violations();
    report.lost_wakeups += shard->network().lost_wakeups();
  }
  if (!config.outage.shards.empty()) {
    for (const int k : config.outage.shards) {
      const Shard& shard = *shards[static_cast<std::size_t>(k)];
      if (shard.drained_at() < 0) {
        report.heal_drain = -1;
        break;
      }
      report.heal_drain =
          std::max(report.heal_drain, shard.drained_at() - report.outage_heal);
    }
  }
  return report;
}

}  // namespace tfr::service
