// The probe ladder: one layer call timed at a fixed shape, so a change in
// an end-to-end number can be traced to the layer that caused it.  Every
// traced run runs the whole ladder, whatever its workload.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/service/batcher.hpp"
#include "tfr/service/queue.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"
#include "tfr/sim/timing.hpp"
#include "tfr/spec/linearizability.hpp"

namespace perf {

using namespace tfr;

namespace {

int scaled(const Options& options, int full) {
  return options.quick ? full / 20 : full;
}

// --- sim: a register access, a Task co_await --------------------------------

sim::Process ping_pong(sim::Env env, sim::Register<int>& mine,
                       sim::Register<int>& theirs, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int seen = co_await env.read(theirs);
    co_await env.write(mine, seen + 1);
  }
}

sim::Task<int> plus_one(int x) { co_return x + 1; }

sim::Process task_loop(sim::Env env, int n, std::int64_t& out) {
  std::int64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    const int v = co_await plus_one(i);
    sum += v;
    // A task that finishes without suspending hands control back through
    // symmetric transfer, which nests a stack frame wherever the compiler
    // does not make it a tail call (sanitizer builds); returning to the
    // event loop now and then unwinds them.
    if (i % 1024 == 1023) co_await env.delay(0);
  }
  out = sum;
}

void probe_sim(const Options& options, Result& result) {
  {
    const int rounds = scaled(options, 200'000);
    sim::Simulation s(sim::make_fixed_timing(1));
    sim::Register<int> a(s.space(), 0, "a");
    sim::Register<int> b(s.space(), 0, "b");
    s.spawn([&](sim::Env env) { return ping_pong(env, a, b, rounds); });
    s.spawn([&](sim::Env env) { return ping_pong(env, b, a, rounds); });
    const Clock::time_point begin = Clock::now();
    s.run();
    result.layer["sim.access_ns"] =
        seconds_since(begin) * 1e9 / static_cast<double>(timed_events(s));
  }
  {
    const int n = scaled(options, 1'000'000);
    std::int64_t sum = 0;
    sim::Simulation s(sim::make_fixed_timing(1));
    s.spawn([&](sim::Env env) { return task_loop(env, n, sum); });
    const std::uint64_t allocs_before = allocations();
    const Clock::time_point begin = Clock::now();
    s.run();
    const double wall = seconds_since(begin);
    result.gate(sum == static_cast<std::int64_t>(n) * (n + 1) / 2,
                "task probe: every co_await returns its value");
    result.layer["sim.task_ns"] = wall * 1e9 / n;
    result.layer["alloc.per_task"] =
        static_cast<double>(allocations() - allocs_before) / n;
  }
}

// --- msg: one message sent and received; one ABD write + read-back ---------

sim::Process sender(sim::Env env, msg::Network& net, int n) {
  for (int i = 0; i < n; ++i) {
    msg::Message m;
    m.type = 1;
    m.value = i;
    co_await net.send(env, 0, 1, m);
  }
}

sim::Process receiver(sim::Env env, msg::Network& net, int n,
                      std::int64_t& sum) {
  for (int i = 0; i < n; ++i) {
    const msg::Message m = co_await net.recv(env, 1);
    sum += m.value;
  }
}

/// Counters captured inside the simulation once the ABD client is warm.
struct AbdWindow {
  Clock::time_point begin;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t mismatches = 0;
  bool done = false;
};

sim::Process abd_client_loop(sim::Env env, msg::AbdClient& client, int warm,
                        int ops, AbdWindow& window) {
  for (int i = 0; i < warm + ops; ++i) {
    if (i == warm) {
      window.events = timed_events(env.sim());
      window.allocs = allocations();
      window.begin = Clock::now();
    }
    co_await client.write(env, /*reg=*/1, i);
    const std::int64_t back = co_await client.read(env, 1);
    if (back != i) ++window.mismatches;
  }
  window.done = true;
}

void probe_msg(const Options& options, Result& result) {
  {
    const int n = scaled(options, 50'000);
    sim::Simulation s(sim::make_fixed_timing(1));
    msg::Network net(s.space(), 2);
    std::int64_t sum = 0;
    s.spawn([&](sim::Env env) { return sender(env, net, n); });
    s.spawn([&](sim::Env env) { return receiver(env, net, n, sum); });
    const std::uint64_t allocs_before = allocations();
    const Clock::time_point begin = Clock::now();
    s.run();
    const double wall = seconds_since(begin);
    result.gate(sum == static_cast<std::int64_t>(n) * (n - 1) / 2,
                "message probe: every message arrives once");
    result.layer["msg.send_recv_ns"] = wall * 1e9 / n;
    result.layer["alloc.per_message"] =
        static_cast<double>(allocations() - allocs_before) / n;
  }
  {
    // One ABD write and its read-back — what a shard leader does per
    // batch — on 3 replicas, after the client's scratch is warm.
    const int n = 3;
    const int warm = 16;
    const int ops = scaled(options, 20'000);
    sim::Simulation s(sim::make_fixed_timing(1));
    msg::Network net(s.space(), 2 * n);
    msg::RetryPolicy policy;
    policy.timeout = 64;
    policy.max_timeout = 4096;
    policy.poll_every = 4;
    msg::AbdClient client(net, 0, n, policy);
    AbdWindow window;
    s.spawn([&](sim::Env env) {
      return abd_client_loop(env, client, warm, ops, window);
    });
    for (int i = 0; i < n; ++i) {
      s.spawn([&net, i](sim::Env env) {
        return msg::abd_server(env, net, i, n);
      });
    }
    s.run(sim::kTimeNever, [&] { return window.done; });
    const double wall = seconds_since(window.begin);
    result.gate(window.done && window.mismatches == 0,
                "ABD probe: every read returns the preceding write");
    result.layer["abd.op_ns"] = wall * 1e9 / ops;
    result.layer["abd.events_per_op"] =
        static_cast<double>(timed_events(s) - window.events) / ops;
    result.layer["alloc.per_abd_op"] =
        static_cast<double>(allocations() - window.allocs) / ops;
  }
}

// --- service: admission queue and batcher -----------------------------------

void probe_service(const Options& options, Result& result) {
  // One admission (try_push), and one batch of 256 pulled from the queue
  // and handed over (fill_from + should_flush + take).
  constexpr std::size_t kBatch = 256;
  const int batches = scaled(options, 8'000);
  service::BoundedQueue queue(4096, 8);
  service::Batcher batcher({.max_batch = kBatch, .max_wait = 200});
  double queue_s = 0;
  double batch_s = 0;
  std::uint64_t session = 0;
  std::uint64_t taken = 0;
  for (int b = 0; b < batches; ++b) {
    const sim::Time now = b;
    Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i)
      (void)queue.try_push({.session = session++, .first_offered = now}, now);
    queue_s += seconds_since(begin);
    begin = Clock::now();
    batcher.fill_from(queue);
    if (batcher.should_flush(now)) taken += batcher.take().size();
    batch_s += seconds_since(begin);
  }
  result.gate(queue.rejected() == 0 &&
                  taken == static_cast<std::uint64_t>(batches) * kBatch,
              "queue probe: every request admitted and batched");
  result.layer["service.queue_ns"] =
      queue_s * 1e9 / static_cast<double>(batches * kBatch);
  result.layer["service.batch_ns"] = batch_s * 1e9 / batches;
}

// --- spec: Wing–Gong on a sequential register history ----------------------

void probe_spec(Result& result) {
  for (const auto& [key, n] : {std::pair<const char*, int>{"n1k", 1'000},
                               {"n8k", 8'000},
                               {"n32k", 32'000}}) {
    // A leader writing then reading back, as each shard's history is.
    std::vector<spec::Operation> history;
    history.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::int64_t value = i / 2 + 1;
      history.push_back({.thread = 0,
                         .op = i % 2 == 0 ? "write" : "read",
                         .arg = i % 2 == 0 ? value : 0,
                         .result = value,
                         .invoked_at = 2 * i,
                         .responded_at = 2 * i + 1});
    }
    const Clock::time_point begin = Clock::now();
    const spec::LinearizabilityResult r =
        spec::check_linearizable(history, spec::RegisterModel());
    const double wall = seconds_since(begin);
    result.gate(r.linearizable, "spec probe: a sequential history linearizes");
    result.layer[std::string("spec.check_ns_per_op.") + key] = wall * 1e9 / n;
  }
}

}  // namespace

std::uint64_t timed_events(const sim::Simulation& s) {
  std::uint64_t events = 0;
  for (std::size_t pid = 0; pid < s.process_count(); ++pid) {
    const sim::ProcessStats& stats = s.stats(static_cast<sim::Pid>(pid));
    events += stats.reads + stats.writes + stats.delays;
  }
  return events;
}

void run_probes(const Options& options, Result& result) {
  probe_sim(options, result);
  probe_msg(options, result);
  probe_service(options, result);
  probe_spec(result);
  probe_mcheck(options, result);
  probe_rt(options, result);
  probe_obs(options, result);
}

}  // namespace perf
