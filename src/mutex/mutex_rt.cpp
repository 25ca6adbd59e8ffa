#include "tfr/mutex/mutex_rt.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "tfr/common/contracts.hpp"

namespace tfr::rt {

// The production codegen: every target linking tfr_mutex shares these
// StdAtomics instantiations (the header's extern template declarations).
template class BasicFischerRt<StdAtomics>;
template class BasicLamportFastRt<StdAtomics>;
template class BasicBakeryRt<StdAtomics>;
template class BasicBlackWhiteBakeryRt<StdAtomics>;
template class BasicStarvationFreeRt<StdAtomics>;
template class BasicTfrMutexRt<StdAtomics>;

std::unique_ptr<TfrMutexRt> make_tfr_mutex_rt(int n, Nanos delta,
                                              FaultInjector* faults) {
  // std-atomics-ok: the production factory behind the TfrMutexRt alias
  return make_basic_tfr_mutex<StdAtomics>(n, delta, faults);
}

namespace {

/// CPU time consumed by the whole process so far, in seconds.  Inside
/// run_rt_mutex_workload only the workload's threads run, so the delta
/// across the run is the workload's own CPU bill.
double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// --------------------------------------------------------------------------
// Harness

RtWorkloadResult run_rt_mutex_workload(RtMutex& mutex,
                                       RtWorkloadConfig config) {
  TFR_REQUIRE(config.threads >= 1);
  TFR_REQUIRE(config.sessions >= 1);

  // raw-atomic-ok: harness instrumentation (occupancy probe and wait
  // statistics), not algorithm state — the seam verifies the locks, the
  // harness only measures them.
  std::atomic<int> occupancy{0};           // raw-atomic-ok: harness probe
  std::atomic<std::uint64_t> violations{0};  // raw-atomic-ok: harness probe
  std::atomic<std::uint64_t> entries{0};     // raw-atomic-ok: harness probe
  std::atomic<std::int64_t> max_wait_ns{0};  // raw-atomic-ok: harness probe
  std::vector<std::vector<std::int64_t>> waits(
      static_cast<std::size_t>(config.threads));

  auto worker = [&](int id) {
    auto& my_waits = waits[static_cast<std::size_t>(id)];
    my_waits.reserve(static_cast<std::size_t>(config.sessions));
    for (int s = 0; s < config.sessions; ++s) {
      if (config.ncs_time.count() > 0) sleep_spin_for(config.ncs_time);
      const auto wait_begin = std::chrono::steady_clock::now();
      mutex.lock(id);
      const auto waited = std::chrono::duration_cast<Nanos>(
                              std::chrono::steady_clock::now() - wait_begin)
                              .count();
      my_waits.push_back(waited);
      std::int64_t seen = max_wait_ns.load(std::memory_order_relaxed);  // mo-ok: statistic
      while (waited > seen &&
             !max_wait_ns.compare_exchange_weak(
                 seen, waited, std::memory_order_relaxed)) {  // mo-ok: statistic
      }
      if (occupancy.fetch_add(1, std::memory_order_seq_cst) != 0)
        violations.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
      entries.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
      if (config.cs_time.count() > 0) sleep_spin_for(config.cs_time);
      occupancy.fetch_sub(1, std::memory_order_seq_cst);
      mutex.unlock(id);
    }
  };

  const double cpu_start = process_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.threads));
  for (int i = 0; i < config.threads; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();
  const auto wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const double cpu = process_cpu_seconds() - cpu_start;

  std::vector<std::int64_t> all_waits;
  all_waits.reserve(static_cast<std::size_t>(config.threads) *
                    static_cast<std::size_t>(config.sessions));
  for (auto& w : waits) all_waits.insert(all_waits.end(), w.begin(), w.end());
  std::sort(all_waits.begin(), all_waits.end());
  const std::size_t p99_index =
      all_waits.empty() ? 0 : (all_waits.size() * 99) / 100;
  const std::int64_t p99 =
      all_waits.empty()
          ? 0
          : all_waits[std::min(p99_index, all_waits.size() - 1)];

  return RtWorkloadResult{
      .violations = violations.load(),
      .cs_entries = entries.load(),
      .max_wait = Nanos{max_wait_ns.load()},
      .p99_wait = Nanos{p99},
      .wall_seconds = wall,
      .cpu_seconds = cpu,
  };
}

}  // namespace tfr::rt
