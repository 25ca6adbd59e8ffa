// tfr_mcheck — systematic schedule exploration for small configurations.
//
//   $ tfr_mcheck                     # the simulator checks (= --all)
//   $ tfr_mcheck --all --rt          # every check in the catalog
//   $ tfr_mcheck --check consensus-n2 --check abd-n3-minority-down
//   $ tfr_mcheck --check fischer-n2 --save fischer.run    # save the cex
//   $ tfr_mcheck --check fischer-n2 --replay fischer.run  # re-check it
//   $ tfr_mcheck --rt                # the real-thread code through the shim
//
// The checks are the mcheck::catalog() entries: --check NAME (repeatable)
// selects one by name, --all the sim group, --rt the rt group; selected
// checks run in catalog order.  --save and --replay need exactly one
// selected check.  Options: --naive (naive DFS, no reduction), --seed N,
// --max-executions N, --jobs N (forked parallel exploration — verdicts,
// stats and counterexamples are identical to --jobs 1).  Exit status 0
// iff every executed check matched its expectation (violation found / not
// found, counterexample replays byte-identically), 2 on a usage error
// (including a number that does not parse in full).
// Multi-check runs end with a per-check wall-time summary table.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "tfr/common/table.hpp"
#include "tfr/mcheck/catalog.hpp"
#include "tfr/mcheck/explorer.hpp"
#include "tfr/obs/replay.hpp"

namespace {

using namespace tfr;

void print_stats(const mcheck::ExploreStats& stats) {
  std::printf(
      "  executions=%llu states=%llu transitions=%llu sched-points=%llu "
      "cost-points=%llu\n",
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.states),
      static_cast<unsigned long long>(stats.transitions),
      static_cast<unsigned long long>(stats.sched_choice_points),
      static_cast<unsigned long long>(stats.cost_choice_points));
  std::printf(
      "  sleep-pruned=%llu sleep-blocked=%llu truncated=%llu complete=%s\n",
      static_cast<unsigned long long>(stats.sleep_pruned),
      static_cast<unsigned long long>(stats.sleep_blocked),
      static_cast<unsigned long long>(stats.truncated),
      stats.complete ? "yes" : "no");
  std::printf(
      "  races=%llu source-pruned=%llu state-pruned=%llu\n",
      static_cast<unsigned long long>(stats.races_detected),
      static_cast<unsigned long long>(stats.source_pruned),
      static_cast<unsigned long long>(stats.state_pruned));
}

/// One executed check, as reported in the end-of-run summary table.
struct CheckReport {
  std::string name;
  bool ok = false;
  bool violation = false;
  double wall_ms = 0;
  mcheck::ExploreStats stats;
};

/// Runs one check and compares against its expectation; on violation the
/// counterexample is replayed through the obs trace layer and must match
/// byte-for-byte.  Returns true iff everything matched.
bool run_check(const mcheck::NamedCheck& check, const std::string& save_path,
               CheckReport& report) {
  std::printf("[mcheck] %s — %s\n", check.name.c_str(),
              check.description.c_str());
  const auto begin = std::chrono::steady_clock::now();
  const mcheck::CheckResult result = mcheck::check(check.scenario,
                                                   check.config);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  report.name = check.name;
  report.violation = result.violation;
  report.stats = result.stats;
  print_stats(result.stats);
  std::printf("  wall: %.1f ms (jobs=%d)\n", report.wall_ms,
              check.config.jobs);

  bool ok = true;
  if (result.violation != check.expect_violation) {
    std::printf("  verdict: %s but expected %s — FAIL\n",
                result.violation ? "violation" : "no violation",
                check.expect_violation ? "a violation" : "none");
    ok = false;
  }
  if (result.violation) {
    std::printf("  violation: %s\n", result.what.c_str());
    const obs::ReplayResult replayed =
        obs::replay(result.counterexample,
                    mcheck::counterexample_scenario(check.scenario,
                                                    check.config));
    std::printf("  counterexample: %zu scripted costs, %zu scheduled picks, "
                "replay %s\n",
                result.counterexample.timing.script.size(),
                result.counterexample.timing.schedule.size(),
                replayed.identical ? "byte-identical" : "DIVERGED");
    if (!replayed.identical) ok = false;
    const mcheck::CheckOutcome reproduced = mcheck::run_recorded(
        result.counterexample, check.scenario, check.config);
    if (reproduced.ok) {
      std::printf("  counterexample replay did NOT reproduce the violation"
                  " — FAIL\n");
      ok = false;
    }
    if (!save_path.empty()) {
      if (result.counterexample.save(save_path)) {
        std::printf("  counterexample saved to %s\n", save_path.c_str());
      } else {
        std::printf("  could not save counterexample to %s\n",
                    save_path.c_str());
        ok = false;
      }
    }
  } else if (!result.stats.complete) {
    std::printf("  verdict: exploration aborted at max-executions — FAIL\n");
    ok = false;
  }
  if (ok) std::printf("  verdict: as expected\n");
  report.ok = ok;
  return ok;
}

/// Wall-time summary for multi-check runs (--all or the default set).
void print_summary(const std::vector<CheckReport>& reports) {
  tfr::Table table("mcheck summary");
  table.header({"check", "verdict", "executions", "states", "sleep-pruned",
                "wall ms", "status"});
  double total_ms = 0;
  for (const CheckReport& report : reports) {
    total_ms += report.wall_ms;
    table.row({report.name, report.violation ? "violation" : "clean",
               tfr::Table::fmt(
                   static_cast<unsigned long long>(report.stats.executions)),
               tfr::Table::fmt(
                   static_cast<unsigned long long>(report.stats.states)),
               tfr::Table::fmt(static_cast<unsigned long long>(
                   report.stats.sleep_pruned)),
               tfr::Table::fmt(report.wall_ms, 1),
               report.ok ? "ok" : "FAIL"});
  }
  table.print(std::cout);
  std::printf("total wall: %.1f ms\n", total_ms);
}

bool replay_saved(const mcheck::NamedCheck& check, const std::string& path) {
  const std::optional<obs::RecordedRun> run = obs::RecordedRun::load(path);
  if (!run) {
    std::printf("[mcheck] could not load a recorded run from %s\n",
                path.c_str());
    return false;
  }
  const obs::ReplayResult replayed = obs::replay(
      *run, mcheck::counterexample_scenario(check.scenario, check.config));
  const mcheck::CheckOutcome outcome =
      mcheck::run_recorded(*run, check.scenario, check.config);
  std::printf("[mcheck] replay of %s against %s: trace %s, verdict: %s\n",
              path.c_str(), check.name.c_str(),
              replayed.identical ? "byte-identical" : "DIVERGED",
              outcome.ok ? "no violation" : outcome.what.c_str());
  return replayed.identical;
}

/// Parses all of `text` as a base-10 unsigned number; false on anything
/// else (a sign, trailing characters, overflow, an empty string).
bool parse_number(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

int usage() {
  std::printf(
      "usage: tfr_mcheck [--check NAME]... [--all] [--rt]\n"
      "                  [--naive] [--seed N] [--max-executions N] [--jobs N]\n"
      "                  [--save FILE | --replay FILE]  (one check only)\n"
      "checks:");
  for (const mcheck::NamedCheck& check : mcheck::catalog())
    std::printf(" %s", check.name.c_str());
  std::printf("\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<mcheck::NamedCheck> checks = mcheck::catalog();
  std::vector<bool> selected(checks.size(), false);
  // Marks every check `pick` accepts; false when it accepts none.
  const auto select = [&](auto&& pick) {
    bool any = false;
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (pick(checks[i])) selected[i] = any = true;
    }
    return any;
  };
  const auto in_group = [](mcheck::CheckGroup group) {
    return [group](const mcheck::NamedCheck& c) { return c.group == group; };
  };
  bool naive = false;
  std::uint64_t seed = 1;
  std::uint64_t max_executions = 0;
  int jobs = 1;
  std::string save_path;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      select(in_group(mcheck::CheckGroup::kSim));
    } else if (arg == "--rt") {
      select(in_group(mcheck::CheckGroup::kRt));
    } else if (arg == "--check" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (!select([&name](const mcheck::NamedCheck& c) {
            return c.name == name;
          })) {
        std::printf("[mcheck] unknown check '%s'\n", name.c_str());
        return usage();
      }
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!parse_number(argv[++i], seed)) return usage();
    } else if (arg == "--max-executions" && i + 1 < argc) {
      if (!parse_number(argv[++i], max_executions)) return usage();
    } else if (arg == "--jobs" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_number(argv[++i], n) || n < 1 ||
          n > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
        return usage();
      jobs = static_cast<int>(n);
    } else if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (std::count(selected.begin(), selected.end(), true) == 0)
    select(in_group(mcheck::CheckGroup::kSim));
  // A saved or replayed run belongs to exactly one scenario.
  if ((!save_path.empty() || !replay_path.empty()) &&
      std::count(selected.begin(), selected.end(), true) != 1)
    return usage();

  bool ok = true;
  std::vector<CheckReport> reports;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (!selected[i]) continue;
    mcheck::NamedCheck& check = checks[i];
    if (naive) check.config.reduction = mcheck::Reduction::kNone;
    check.config.seed = seed;
    if (max_executions > 0) check.config.max_executions = max_executions;
    check.config.jobs = jobs;
    if (!replay_path.empty()) {
      ok = replay_saved(check, replay_path) && ok;
      continue;
    }
    CheckReport report;
    ok = run_check(check, save_path, report) && ok;
    reports.push_back(std::move(report));
  }
  if (reports.size() > 1) print_summary(reports);
  std::printf("[mcheck] %s\n", ok ? "all checks as expected"
                                  : "EXPECTATION MISMATCH");
  return ok ? 0 : 1;
}
