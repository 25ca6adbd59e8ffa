// Workload harness for mutual-exclusion experiments: n processes cycling
// NCS → entry → CS → exit under a chosen timing model, with a MutexMonitor
// checking safety and recording the paper's time-complexity metric.
//
// run_mutex_workload runs the shipped rt locks (mutex_rt.hpp) through the
// atomic interposition seam (rt/shim/): the same source that production
// compiles against std::atomic, instantiated with ShimAtomics, as shim
// threads in an ordinary sim::Simulation.  Every shared access is then a
// simulated register access under the run's TimingModel, so E6, E7, E9,
// E15 and E21 measure the code E12 and the rt mcheck checks run.
// mutex_sessions is the coroutine loop of the SimMutex ports, kept for the
// sim model-checking scenarios and E8.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/mutex/mutex_sim.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

namespace tfr::mutex {

struct WorkloadConfig {
  int processes = 2;
  /// Critical sections each process performs; <= 0 means "until the time
  /// limit" (long-lived run).
  int sessions = 10;
  sim::Duration cs_time = 10;    ///< time spent inside the CS
  sim::Duration ncs_time = 10;   ///< time spent in the NCS between sessions
  bool randomize_ncs = false;    ///< NCS uniform in [0, ncs_time]
  /// Count ME violations instead of throwing (for violation-rate sweeps).
  bool tolerate_violations = false;
};

/// One SimMutex process's session loop; reports entry/CS/exit transitions
/// to `mon`.
sim::Process mutex_sessions(sim::Env env, SimMutex& algorithm,
                            sim::MutexMonitor& mon, int id,
                            WorkloadConfig config);

/// An rt lock instantiated on the interposition seam.
using ShimLock = rt::BasicRtMutex<rtshim::ShimAtomics>;

/// Builds the rt lock named `name` on the seam: "fischer", "lamport-fast",
/// "bakery", "bw-bakery", "starvation-free" (the doorway over
/// Lamport-fast), "tfr(sf)" (Algorithm 3 over it) or "tfr(df)"
/// (Algorithm 3 over bare Lamport-fast).  `n` sizes the per-process
/// arrays, `delta` is Fischer's and Algorithm 3's delay(Δ).  Must run
/// while an RtExecution is live, as run_mutex_workload's factory does.
std::unique_ptr<ShimLock> make_shim_lock(std::string_view name, int n,
                                         sim::Duration delta);

struct WorkloadResult {
  sim::MutexMonitor monitor;          ///< full event record
  std::uint64_t violations = 0;       ///< ME violations observed
  std::uint64_t cs_entries = 0;
  sim::Duration time_complexity = 0;  ///< paper's metric over the whole run
  sim::Duration max_wait = 0;         ///< longest entry wait of any process
  std::uint64_t registers_allocated = 0;
  std::uint64_t rmr = 0;              ///< remote references, all processes
  sim::Time end_time = 0;
  bool completed = false;  ///< every process finished its sessions
};

/// Runs `config.processes` shim threads over the lock `make` returns in a
/// fresh simulation, and summarizes.  `make` runs once the run's
/// RtExecution exists (shim cells bind to it).  Threads still live at
/// `limit` are unwound when the run is torn down.  When `sink` is given,
/// the run emits structured trace events (accesses, entry/CS transitions,
/// ME violations).
WorkloadResult run_mutex_workload(
    const std::function<std::unique_ptr<ShimLock>()>& make,
    WorkloadConfig config, std::unique_ptr<sim::TimingModel> timing,
    std::uint64_t seed = 1, sim::Time limit = sim::kTimeNever,
    obs::TraceSink* sink = nullptr);

}  // namespace tfr::mutex
