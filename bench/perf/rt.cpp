// rt_locks: real threads in the shape of atomic_sync's test_mutex — T
// threads x R rounds of lock, occupancy check, unlock, with an empty
// critical section — over the blocking tfr lock, AtomicMutex and, as a
// control for the host, std::mutex.  No simulator runs here.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "tfr/mutex/lock_adapters.hpp"
#include "tfr/mutex/mutex_rt.hpp"

namespace perf {

using namespace tfr;

namespace {

constexpr rt::Nanos kDelta{500};  // optimistic(Δ) for the tfr fast path

int thread_count() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The three locks, built once per set-up.
struct Locks {
  std::unique_ptr<rt::TfrMutexRt> tfr;
  rt::AtomicMutexLock atomic_mutex;
  rt::StdMutexLock std_mutex;
};

struct LockCase {
  const char* key;  ///< metric-name suffix
  rt::RtMutex& (*pick)(Locks&);
  int rounds;               ///< per thread and sample: ~50 ms on 4 threads
  bool in_throughput;       ///< std::mutex is the host control, not a target
};

const LockCase kCases[] = {
    {"tfr", [](Locks& l) -> rt::RtMutex& { return *l.tfr; }, 25'000, true},
    {"atomic_mutex",
     [](Locks& l) -> rt::RtMutex& { return l.atomic_mutex; }, 100'000,
     true},
    {"std_mutex", [](Locks& l) -> rt::RtMutex& { return l.std_mutex; },
     100'000, false},
};

struct Hammer {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t violations = 0;
};

/// `threads` threads each take the lock `rounds` times; the occupancy
/// counter catches two threads inside at once.
Hammer hammer(rt::RtMutex& mutex, int threads, int rounds) {
  std::atomic<int> occupancy{0};
  std::atomic<std::uint64_t> violations{0};
  std::latch start(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int id = 0; id < threads; ++id) {
    workers.emplace_back([&, id] {
      std::uint64_t seen = 0;
      start.arrive_and_wait();
      for (int r = 0; r < rounds; ++r) {
        mutex.lock(id);
        // Relaxed is enough: overlapping holders still meet on the one
        // counter's modification order.
        if (occupancy.fetch_add(1, std::memory_order_relaxed) != 0) ++seen;
        occupancy.fetch_sub(1, std::memory_order_relaxed);
        mutex.unlock(id);
      }
      violations.fetch_add(seen, std::memory_order_relaxed);
    });
  }
  const double cpu_begin = process_cpu_seconds();
  const Clock::time_point begin = Clock::now();
  start.arrive_and_wait();
  for (std::thread& worker : workers) worker.join();
  Hammer out;
  out.wall_s = seconds_since(begin);
  out.cpu_s = process_cpu_seconds() - cpu_begin;
  out.acquisitions =
      static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(rounds);
  out.violations = violations.load();
  return out;
}

int rounds_for(const LockCase& c, const Options& options) {
  return options.quick ? c.rounds / 10 : c.rounds;
}

/// One pass over the three locks, a span around each when enabled.
std::vector<Hammer> run_round(Locks& locks, const Options& options,
                              Result& result, SpanLog& spans, int parent) {
  std::vector<Hammer> out;
  for (const LockCase& c : kCases) {
    Scope scope(spans, std::string("rt.") + c.key, parent);
    out.push_back(hammer(c.pick(locks), thread_count(), rounds_for(c, options)));
    result.attempted += out.back().acquisitions;
    result.failed += out.back().violations;
    result.gate(out.back().violations == 0,
                std::string(c.key) + ": mutual exclusion holds");
  }
  return out;
}

double rate(const Hammer& h) {
  return static_cast<double>(h.acquisitions) / h.wall_s;
}

}  // namespace

void run_rt_locks(const Options& options, Result& result) {
  result.median_of_samples = true;
  Locks locks;
  // Set-up: the tfr lock, and a warm-up pass at a tenth of a sample.
  auto setup = [&] {
    locks.tfr = rt::make_tfr_mutex_rt(thread_count(), kDelta);
    for (const LockCase& c : kCases)
      hammer(c.pick(locks), thread_count(),
             std::max(1, rounds_for(c, options) / 10));
  };

  SpanLog untraced(false);
  if (!options.trace) {
    measure(options, result, setup, [&] {
      const std::vector<Hammer> runs =
          run_round(locks, options, result, untraced, -1);
      for (std::size_t i = 0; i < runs.size(); ++i)
        if (kCases[i].in_throughput)
          result.series["throughput_per_s"][kCases[i].key].push_back(
              rate(runs[i]));
    });
    return;
  }

  setup();
  const Clock::time_point untraced_begin = Clock::now();
  run_round(locks, options, result, untraced, -1);
  const double untraced_s = seconds_since(untraced_begin);

  const std::uint64_t first_before = locks.tfr->first_try_admissions();
  const std::uint64_t retried_before = locks.tfr->retried_admissions();
  const Clock::time_point traced_begin = Clock::now();
  const int root = result.spans.begin("harness.rt_locks");
  const std::vector<Hammer> runs =
      run_round(locks, options, result, result.spans, root);
  result.spans.end(root);
  result.traced_wall_s = seconds_since(traced_begin);

  auto& layer = result.layer;
  layer["trace_overhead_frac"] = result.traced_wall_s / untraced_s - 1.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string key = kCases[i].key;
    layer["rt." + key + "_acq_per_s"] = rate(runs[i]);
    layer["rt.cpu_wall." + key] = runs[i].cpu_s / runs[i].wall_s;
  }
  const double first =
      static_cast<double>(locks.tfr->first_try_admissions() - first_before);
  const double retried =
      static_cast<double>(locks.tfr->retried_admissions() - retried_before);
  layer["rt.tfr_retried_frac"] = retried / (first + retried);
}

void probe_rt(const Options& options, Result& result) {
  const int threads = thread_count();
  for (const LockCase& c : kCases) {
    Locks locks;
    locks.tfr = rt::make_tfr_mutex_rt(threads, kDelta);
    rt::RtMutex& mutex = c.pick(locks);
    // Uncontended: one thread, lock + unlock.
    const int solo = rounds_for(c, options);
    const Clock::time_point begin = Clock::now();
    for (int i = 0; i < solo; ++i) {
      mutex.lock(0);
      mutex.unlock(0);
    }
    result.layer[std::string("rt.uncontended_ns.") + c.key] =
        seconds_since(begin) * 1e9 / solo;
    // Contended: per-acquisition lock() latency from the repo's harness.
    const rt::RtWorkloadResult contended = rt::run_rt_mutex_workload(
        mutex, {.threads = threads,
                .sessions = std::max(1, rounds_for(c, options) / 2),
                .cs_time = rt::Nanos{0},
                .ncs_time = rt::Nanos{0}});
    result.gate(contended.violations == 0,
                std::string(c.key) + " probe: mutual exclusion holds");
    result.layer[std::string("rt.lock_p99_us.") + c.key] =
        static_cast<double>(contended.p99_wait.count()) / 1e3;
  }
}

}  // namespace perf
