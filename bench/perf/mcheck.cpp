// mcheck_suite: mcheck::check run serially over tfr_mcheck's own check
// configurations — five simulator-backed checks and five that drive the
// real rt code through the shim.  abd-fast is left out: its register
// variant is due to become the only ABD discipline.

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"
#include "tfr/mcheck/explorer.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"

namespace perf {

using namespace tfr;

namespace {

struct Check {
  std::string name;
  mcheck::CheckScenario scenario;
  mcheck::ExploreConfig config;
  bool expect_violation = false;
  bool rt = false;
  /// A timed sample is `loops` explorations, each stopped after `cap`
  /// executions (0: run to the verdict), so that every sample takes
  /// ~50 ms: a check that runs for seconds is timed on a fixed prefix of
  /// its search, and one that takes a millisecond is repeated.
  std::uint64_t cap = 0;
  int loops = 1;
};

mcheck::ExploreConfig base_config(std::uint64_t seed) {
  mcheck::ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  config.seed = seed;
  return config;
}

/// tfr_mcheck's checks, configured as src/mcheck/mcheck_main.cpp does;
/// the PerfMcheckParity test holds the two to the same execution counts.
std::vector<Check> make_checks(std::uint64_t seed) {
  using Mutex = mcheck::MutexScenarioConfig::Algorithm;
  using RtMutex = mcheck::RtMutexScenarioConfig::Algorithm;
  const mcheck::ExploreConfig base = base_config(seed);
  mcheck::ExploreConfig untimed = base;  // pure ordering races
  untimed.max_failures = 0;
  untimed.slow_budget = 0;
  mcheck::ExploreConfig abd = untimed;
  abd.max_steps = 600;
  mcheck::ExploreConfig full_menu = base;
  full_menu.slow_budget = -1;

  mcheck::MutexScenarioConfig mistuned;
  mistuned.algorithm = Mutex::kTfrStarvationFree;
  mistuned.mistuned_controller = true;

  std::vector<Check> checks = {
      {"consensus-n2", mcheck::make_consensus_scenario({}), base, false,
       false, 0, 4},
      {"fischer-n2",
       mcheck::make_mutex_scenario({.algorithm = Mutex::kFischer}),
       full_menu, true, false, 16'000, 1},
      {"tfr-mutex-n2",
       mcheck::make_mutex_scenario({.algorithm = Mutex::kTfrStarvationFree}),
       base, false, false, 6'000, 1},
      {"tfr-mutex-mistuned-n2", mcheck::make_mutex_scenario(mistuned), base,
       false, false, 6'000, 1},
      {"abd-n3-minority-down", mcheck::make_abd_scenario({}), abd, false,
       false, 0, 32},
      {"fischer-rt-n2",
       mcheck::make_rt_mutex_scenario({.algorithm = RtMutex::kFischer}), base,
       true, true, 100, 1},
      {"tfr-mutex-rt-n2",
       mcheck::make_rt_mutex_scenario(
           {.algorithm = RtMutex::kTfrStarvationFree}),
       base, false, true, 60, 1},
      {"atomic-lock-rt-n2",
       mcheck::make_rt_mutex_scenario({.algorithm = RtMutex::kAtomicLock}),
       base, false, true, 0, 2},
      {"eventcount-torn-epoch",
       mcheck::make_rt_eventcount_scenario({.torn_epoch = true}), untimed,
       true, true, 0, 8},
      {"eventcount-write-then-advance",
       mcheck::make_rt_eventcount_scenario({.torn_epoch = false}), untimed,
       false, true, 0, 128},
  };
  return checks;
}

/// Explorations timed together.
struct Sample {
  double wall_s = 0;
  std::uint64_t executions = 0;
  std::uint64_t transitions = 0;
};

double rate(const Sample& sample) {
  return static_cast<double>(sample.executions) / sample.wall_s;
}

/// One timed sample of `check`.  Each capped exploration stops at the
/// same point of the same search, so its execution count must repeat
/// (`seen`), and it may find a violation only where the full check does.
Sample run_sample(const Check& check, const Options& options, Result& result,
                  std::vector<std::uint64_t>& seen) {
  mcheck::ExploreConfig config = check.config;
  if (check.cap > 0) config.max_executions = check.cap;
  const int loops = options.quick ? 1 : check.loops;
  Sample sample;
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < loops; ++i) {
    const mcheck::CheckResult r = mcheck::check(check.scenario, config);
    const bool ok = r.violation ? check.expect_violation
                    : r.stats.complete ? !check.expect_violation
                                       : check.cap > 0;
    ++result.attempted;
    if (!ok) ++result.failed;
    result.gate(ok, check.name + ": sample verdict as expected");
    sample.executions += r.stats.executions;
    seen.push_back(r.stats.executions);
  }
  sample.wall_s = seconds_since(begin);
  return sample;
}

/// Every check run once to its verdict, a span around each when the log
/// is enabled; one sample per check.
std::vector<Sample> full_pass(const std::vector<Check>& checks,
                              Result& result, SpanLog& spans, int parent) {
  std::vector<Sample> samples;
  int group = -1;
  bool group_rt = false;
  for (const Check& check : checks) {
    if (group < 0 || check.rt != group_rt) {
      spans.end(group);
      group_rt = check.rt;
      group = spans.begin(group_rt ? "mcheck.rt" : "mcheck.sim", parent);
    }
    Scope scope(spans, "mcheck." + check.name, group);
    const Clock::time_point begin = Clock::now();
    const mcheck::CheckResult r = mcheck::check(check.scenario, check.config);
    const double wall = seconds_since(begin);
    const bool ok = r.violation == check.expect_violation &&
                    (r.violation || r.stats.complete);
    ++result.attempted;
    if (!ok) ++result.failed;
    result.gate(ok, check.name + ": verdict as expected and complete");
    samples.push_back({wall, r.stats.executions, r.stats.transitions});
  }
  spans.end(group);
  return samples;
}

}  // namespace

const std::vector<std::string>& mcheck_check_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Check& check : make_checks(1)) out.push_back(check.name);
    return out;
  }();
  return names;
}

void run_mcheck_suite(const Options& options, Result& result) {
  std::vector<Check> checks;
  auto setup = [&] {
    checks = make_checks(options.seed);
    for (const Check& check : checks) {
      mcheck::ExploreConfig warm = check.config;
      warm.max_executions = 64;
      (void)mcheck::check(check.scenario, warm);
    }
  };

  if (!options.trace) {
    // A round is one sample of every check, so each check's samples come
    // from the whole run.  Then every check runs once to its verdict.
    std::vector<std::vector<std::uint64_t>> seen(mcheck_check_names().size());
    measure(options, result, setup, [&] {
      for (std::size_t i = 0; i < checks.size(); ++i) {
        const Sample s = run_sample(checks[i], options, result, seen[i]);
        result.series["throughput_per_s"][checks[i].name].push_back(rate(s));
      }
    });
    for (std::size_t i = 0; i < checks.size(); ++i) {
      bool same = true;
      for (const std::uint64_t n : seen[i]) same &= n == seen[i].front();
      result.gate(same, checks[i].name + ": sample executions repeat exactly");
    }
    SpanLog untraced(false);
    full_pass(checks, result, untraced, -1);
    return;
  }

  setup();
  SpanLog untraced(false);
  const Clock::time_point untraced_begin = Clock::now();
  const std::vector<Sample> plain = full_pass(checks, result, untraced, -1);
  const double untraced_s = seconds_since(untraced_begin);

  const std::uint64_t allocs_before = allocations();
  const Clock::time_point traced_begin = Clock::now();
  const int root = result.spans.begin("harness.mcheck_suite");
  const std::vector<Sample> samples =
      full_pass(checks, result, result.spans, root);
  result.spans.end(root);
  result.traced_wall_s = seconds_since(traced_begin);
  const double allocs = static_cast<double>(allocations() - allocs_before);

  auto& layer = result.layer;
  layer["trace_overhead_frac"] = result.traced_wall_s / untraced_s - 1.0;
  Sample sim_total, rt_total, total;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const std::string prefix = "mcheck." + checks[i].name;
    const Sample& s = samples[i];
    result.gate(s.executions == plain[i].executions,
                checks[i].name + ": executions repeat exactly");
    layer[prefix + ".exec_per_s"] = rate(s);
    layer[prefix + ".executions"] = static_cast<double>(s.executions);
    layer[prefix + ".transitions"] = static_cast<double>(s.transitions);
    for (Sample* sum : {&total, checks[i].rt ? &rt_total : &sim_total}) {
      sum->wall_s += s.wall_s;
      sum->executions += s.executions;
    }
  }
  layer["mcheck.sim_exec_per_s"] = rate(sim_total);
  layer["mcheck.rt_exec_per_s"] = rate(rt_total);
  layer["alloc.per_execution"] =
      allocs / static_cast<double>(total.executions);
}

void probe_mcheck(const Options& options, Result& result) {
  // ns per scheduler pick on one sim-backed and one shim-backed check.
  const std::vector<Check> checks = make_checks(options.seed);
  for (const Check& check : checks) {
    const char* key = check.name == "consensus-n2"        ? "sim"
                      : check.name == "atomic-lock-rt-n2" ? "rt"
                                                          : nullptr;
    if (key == nullptr) continue;
    const Clock::time_point begin = Clock::now();
    const mcheck::CheckResult r = mcheck::check(check.scenario, check.config);
    const double wall = seconds_since(begin);
    result.gate(r.violation == check.expect_violation,
                check.name + " probe: verdict as expected");
    result.layer[std::string("mcheck.ns_per_transition.") + key] =
        wall * 1e9 / static_cast<double>(r.stats.transitions);
  }
}

}  // namespace perf
