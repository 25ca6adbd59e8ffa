// service_steady and service_degraded: service::run_service under the E20
// base configuration, plus the traced composition that rebuilds
// run_service's four steps from public calls with a span around each.

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/service/service.hpp"
#include "tfr/sim/timing.hpp"

namespace perf {

using namespace tfr;

namespace {

constexpr sim::Duration kStep = 50;  // access-cost bound: the Δ unit

/// The E20 retry discipline: ABD ack windows and client backoff in steps.
msg::RetryPolicy retry_policy() {
  msg::RetryPolicy policy;
  policy.timeout = 40 * kStep;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 320 * kStep;
  policy.backoff = 2 * kStep;
  policy.backoff_growth = 2.0;
  policy.max_backoff = 40 * kStep;
  policy.jitter = kStep;
  policy.poll_every = 5;
  return policy;
}

/// E20's base_config: 4 shards x 3 replicas, batch 256, queue 4096,
/// reliable network; the seed drives the simulator and the routing hash.
service::ServiceConfig base_config(std::uint64_t seed,
                                   std::uint64_t sessions) {
  service::ServiceConfig config;
  config.shards = 4;
  config.step = kStep;
  config.sim_seed = seed;
  config.shard.replicas = 3;
  config.shard.delta = kStep;
  config.shard.abd_retry = retry_policy();
  config.shard.batch.max_batch = 256;
  config.shard.batch.max_wait = 4 * kStep;
  config.shard.queue_capacity = 4096;
  config.shard.drain_hint = 8;
  config.shard.poll_every = kStep;
  config.load.tick = kStep;
  config.load.retry = retry_policy();
  config.load.max_attempts = 6;
  config.load.route_seed = seed;
  config.load.sessions = sessions;
  return config;
}

/// Open loop at ~74% of the batched capacity on a clean network.
service::ServiceConfig steady_config(std::uint64_t seed,
                                     std::uint64_t sessions) {
  service::ServiceConfig config = base_config(seed, sessions);
  config.load.arrivals_per_tick = 0.40;
  return config;
}

/// The failure paths: one slow and one lossy replica per shard, and the
/// leaders of shards {1, 3} cut from step 200 to step 1000.  The faults
/// cut capacity to ~0.05 arrivals/tick, so the load is 0.04; a 512-request
/// queue turns the backlog into rejects, and 32 attempts let every
/// rejected session come back until served instead of being shed.
service::ServiceConfig degraded_config(std::uint64_t seed,
                                       std::uint64_t sessions) {
  service::ServiceConfig config = base_config(seed, sessions);
  config.load.arrivals_per_tick = 0.04;
  config.shard.queue_capacity = 512;
  config.load.max_attempts = 32;
  msg::ChannelFaults slow;
  slow.delay = 1.0;
  slow.delay_min = 40 * kStep;
  slow.delay_max = 60 * kStep;
  msg::ChannelFaults lossy;
  lossy.drop = 0.30;
  config.shard.replica_faults.push_back({.replica = 1, .faults = slow});
  config.shard.replica_faults.push_back({.replica = 2, .faults = lossy});
  config.outage.shards = {1, 3};
  config.outage.begin = 200 * kStep;
  config.outage.heal = 1'000 * kStep;
  config.convergence_bound = 1'000 * kStep;
  return config;
}

struct Shape {
  const char* name;
  service::ServiceConfig (*config)(std::uint64_t, std::uint64_t);
  std::uint64_t sessions;  ///< per sample: one run_service call
  bool degraded;
};

// A sample is one run_service call of ~0.1-0.2 s: short enough that some
// samples of every run miss the host's slow periods.  At this size the
// Wing-Gong check is ~10% of a steady sample; at 4M sessions it is over
// half, but a 4 s sample cannot dodge a slow period.
constexpr Shape kSteady{"service_steady", steady_config, 250'000, false};
constexpr Shape kDegraded{"service_degraded", degraded_config, 50'000, true};

/// Counts read at the layer boundaries of one composed run.
struct Pass {
  service::ServiceReport report;
  std::uint64_t events = 0;    ///< timed simulator events (accesses + delays)
  std::uint64_t messages = 0;  ///< network messages sent, all shards
  std::uint64_t checked = 0;   ///< operations the monitors checked
};

/// run_service's steps — boot, outage, load, report — rebuilt from the
/// public calls so each gets a span.  Must stay step-for-step equal to
/// service::run_service: the traced run gates on identical reports.
Pass compose(const service::ServiceConfig& config, SpanLog& spans,
             int parent) {
  Pass pass;
  service::ServiceReport& report = pass.report;
  sim::Simulation s(sim::make_uniform_timing(1, config.step),
                    {.seed = config.sim_seed, .sink = config.sink});
  report.sessions = config.load.sessions;

  std::vector<std::unique_ptr<service::Shard>> shards;
  auto all_elected = [&shards] {
    return std::all_of(shards.begin(), shards.end(),
                       [](const auto& shard) { return shard->elected(); });
  };
  {
    Scope boot(spans, "service.boot", parent);
    report.latency.reserve(static_cast<std::size_t>(config.load.sessions));
    for (int k = 0; k < config.shards; ++k) {
      service::ShardConfig sc = config.shard;
      sc.id = k;
      shards.push_back(std::make_unique<service::Shard>(s, sc));
      shards.back()->spawn(
          [&report](const service::Request& request, sim::Time done) {
            ++report.served;
            report.latency.add(
                static_cast<double>(done - request.first_offered));
          });
    }
    s.run(config.limit, all_elected);
  }
  report.all_elected = all_elected();
  if (!report.all_elected) return pass;
  report.workload_start = s.now();

  if (!config.outage.shards.empty()) {
    Scope outage(spans, "service.outage", parent);
    report.outage_heal = report.workload_start + config.outage.heal;
    for (const int k : config.outage.shards) {
      service::Shard& shard = *shards[static_cast<std::size_t>(k)];
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

  std::vector<service::BoundedQueue*> queues;
  for (const auto& shard : shards) queues.push_back(&shard->queue());
  service::LoadGen gen(config.load, std::move(queues));
  {
    Scope load(spans, "service.load", parent);
    s.spawn([&gen](sim::Env env) { return gen.run(env); }, s.now());
    s.run(config.limit, [&] {
      return gen.finished() &&
             report.served + gen.shed() == config.load.sessions;
    });
  }

  Scope aggregate(spans, "service.report", parent);
  report.shed = gen.shed();
  report.rejected = gen.rejected();
  for (const auto& shard : shards) {
    report.batches += shard->batches();
    report.abd_operations += shard->abd_operations();
    report.abd_retries += shard->abd_retries();
    report.readback_mismatches += shard->readback_mismatches();
    pass.messages += shard->network().messages_sent();
    msg::ConvergenceMonitor::Report check;
    {
      Scope checking(spans, "spec.check", aggregate.id());
      check = shard->monitor().check();
    }
    report.linearizable &= check.linearizable;
    report.converged &= check.converged;
    report.unfinished += check.unfinished;
    pass.checked += check.operations;
    report.safety_violations += shard->monitor().safety_violations();
  }
  pass.events = timed_events(s);
  return pass;
}

/// The safety and completeness gates every service run must pass.
void gate_report(const Shape& shape, const service::ServiceReport& report,
                 Result& result) {
  result.attempted += report.sessions;
  result.failed += report.shed + report.unfinished;
  result.gate(report.all_elected, "every shard elects a leader");
  result.gate(report.complete() && report.shed == 0,
              "every session served, none shed");
  result.gate(report.unfinished == 0, "no quorum operation left unfinished");
  result.gate(report.linearizable && report.safety_violations == 0 &&
                  report.readback_mismatches == 0,
              "every shard history linearizes and reads back its writes");
  result.gate(report.converged, "stalled quorum operations converge");
  if (shape.degraded)
    result.gate(report.abd_retries > 0, "the degraded run retries quorums");
}

/// What two runs of one configuration must agree on, the traced
/// composition and run_service included.
struct Outcome {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t abd_operations = 0;
  std::uint64_t abd_retries = 0;
  std::uint64_t rejected = 0;
  double latency_p50 = 0;
  double latency_p999 = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const service::ServiceReport& r) {
  Outcome o{r.served,      r.shed,        r.batches,
            r.abd_operations, r.abd_retries, r.rejected};
  if (!r.latency.empty()) {
    o.latency_p50 = r.latency.percentile(50);
    o.latency_p999 = r.latency.percentile(99.9);
  }
  return o;
}

double span_total(const SpanLog& spans, const std::string& name) {
  double total = 0;
  for (const SpanLog::Span& span : spans.spans())
    if (span.name == name) total += span.end_s - span.start_s;
  return total;
}

void run_shape(const Shape& shape, const Options& options, Result& result) {
  const std::uint64_t sessions =
      options.quick ? shape.sessions / 10 : shape.sessions;
  service::ServiceConfig config;
  // Set-up: the configuration and one warm-up pass at a tenth of the size.
  auto setup = [&] {
    config = shape.config(options.seed, sessions);
    const service::ServiceReport warm =
        service::run_service(shape.config(options.seed, sessions / 10));
    result.gate(warm.complete(), "the warm-up pass completes");
  };

  if (!options.trace) {
    std::optional<Outcome> first;
    measure(options, result, setup, [&] {
      const Clock::time_point begin = Clock::now();
      const service::ServiceReport report = service::run_service(config);
      const double wall = seconds_since(begin);
      result.series["throughput_per_s"]["sessions"].push_back(
          static_cast<double>(report.served) / wall);
      gate_report(shape, report, result);
      if (!first) first = outcome_of(report);
      result.gate(*first == outcome_of(report),
                  "repeats of one seed give the same outcome");
    });
    return;
  }
  setup();

  // Traced run: one untraced pass through the public entry point, then
  // the composed pass with spans; the two must report the same outcome.
  const Clock::time_point untraced_begin = Clock::now();
  const service::ServiceReport plain = service::run_service(config);
  const double untraced_s = seconds_since(untraced_begin);
  gate_report(shape, plain, result);

  const std::uint64_t allocs_before = allocations();
  const Clock::time_point traced_begin = Clock::now();
  const int root = result.spans.begin(std::string("harness.") + shape.name);
  const Pass pass = compose(config, result.spans, root);
  result.spans.end(root);
  const double traced_s = seconds_since(traced_begin);
  const std::uint64_t allocs = allocations() - allocs_before;
  result.traced_wall_s = traced_s;
  gate_report(shape, pass.report, result);
  result.gate(outcome_of(plain) == outcome_of(pass.report),
              "the traced composition reports what run_service reports");

  const service::ServiceReport& r = pass.report;
  const auto per_session = [&](double v) {
    return v / static_cast<double>(r.sessions);
  };
  const double boot_s = span_total(result.spans, "service.boot");
  const double load_s = span_total(result.spans, "service.load");
  const double check_s = span_total(result.spans, "spec.check");
  auto& layer = result.layer;
  layer["trace_overhead_frac"] = traced_s / untraced_s - 1.0;
  layer["service.boot_frac"] = boot_s / traced_s;
  layer["service.load_frac"] = load_s / traced_s;
  layer["service.batches"] = static_cast<double>(r.batches);
  layer["service.rejects_per_session"] =
      per_session(static_cast<double>(r.rejected));
  layer["service.latency_p50_delta"] =
      r.latency.percentile(50) / static_cast<double>(kStep);
  layer["service.latency_p999_delta"] =
      r.latency.percentile(99.9) / static_cast<double>(kStep);
  layer["spec.check_frac"] = check_s / traced_s;
  layer["spec.checked_ops"] = static_cast<double>(pass.checked);
  layer["spec.checked_ops_per_s"] = static_cast<double>(pass.checked) / check_s;
  layer["sim.events_per_session"] =
      per_session(static_cast<double>(pass.events));
  layer["sim.events_per_s"] =
      static_cast<double>(pass.events) / (boot_s + load_s);
  layer["msg.messages_per_session"] =
      per_session(static_cast<double>(pass.messages));
  layer["abd.sessions_per_op"] = static_cast<double>(r.served) /
                                 static_cast<double>(r.abd_operations);
  layer["abd.retries_per_op"] = static_cast<double>(r.abd_retries) /
                                static_cast<double>(r.abd_operations);
  layer["alloc.per_session"] = per_session(static_cast<double>(allocs));
}

}  // namespace

void run_service_steady(const Options& options, Result& result) {
  run_shape(kSteady, options, result);
}

void run_service_degraded(const Options& options, Result& result) {
  run_shape(kDegraded, options, result);
}

void probe_obs(const Options& options, Result& result) {
  // run_service at 250k steady sessions with and without an event sink,
  // alternating: the sink's cost per appended event is the difference of
  // the fastest run of each side (one pair is within the host's noise),
  // floored at 0.  Also the sink's event rate and its drops.
  const std::uint64_t sessions = options.quick ? 25'000 : 250'000;
  const int pairs = options.quick ? 1 : 7;
  const service::ServiceConfig plain = steady_config(options.seed, sessions);
  double plain_s = std::numeric_limits<double>::infinity();
  double traced_s = plain_s;
  double events = 0;
  double dropped = 0;
  for (int i = 0; i < pairs; ++i) {
    Clock::time_point begin = Clock::now();
    const service::ServiceReport without = service::run_service(plain);
    plain_s = std::min(plain_s, seconds_since(begin));

    obs::TraceSink sink;
    service::ServiceConfig traced = plain;
    traced.sink = &sink;
    begin = Clock::now();
    const service::ServiceReport with = service::run_service(traced);
    traced_s = std::min(traced_s, seconds_since(begin));
    result.gate(outcome_of(without) == outcome_of(with),
                "an attached event sink does not change the outcome");
    events = static_cast<double>(sink.size() + sink.dropped());
    dropped = static_cast<double>(sink.dropped());
  }
  result.layer["obs.sink_ns_per_event"] =
      std::max(0.0, traced_s - plain_s) * 1e9 / events;
  result.layer["obs.events_per_session"] =
      events / static_cast<double>(sessions);
  result.layer["obs.dropped"] = dropped;
}

}  // namespace perf
