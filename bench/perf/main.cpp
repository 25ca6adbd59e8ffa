// tfr_perf — wall-clock benchmark of the tfr libraries, end to end and
// layer by layer.
//
//   tfr_perf --workload NAME [--seed S] [--seconds N] [--quick]
//            [--trace-dir DIR] [--out DIR] [--commit ID]
//   tfr_perf --workload all ...   # each workload in its own process
//   tfr_perf --list               # workloads and metric tables as JSON
//
// Without --trace-dir the run measures the end-to-end metrics with
// tracing off.  With it, the run is the traced run: per-layer metrics,
// DIR/<workload>.trace.json (Chrome trace format) and DIR/layers.json.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status 0 iff every correctness gate passed.

#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

extern char** environ;

namespace {

using namespace perf;

struct Workload {
  const char* name;
  const char* why;
  Source source;
  void (*run)(const Options&, Result&);
};

const Workload kWorkloads[] = {
    {"service_steady",
     "clean path through sim, msg, ABD, queue, batcher, loadgen and the "
     "linearizability check, 250k sessions a sample",
     Source::kService, run_service_steady},
    {"service_degraded",
     "the same layers on their failure paths: slow and lossy replicas, two "
     "leaders cut, quorum retries and queue rejects",
     Source::kService, run_service_degraded},
    {"mcheck_suite",
     "short re-executions through the explorer, plus shim thread hand-off "
     "on the rt checks; no service work",
     Source::kMcheck, run_mcheck_suite},
    {"rt_locks",
     "real threads contending on the tfr lock and AtomicMutex; no "
     "simulator, so sim and msg changes should leave it unchanged",
     Source::kRt, run_rt_locks},
};

struct Args {
  Options options;
  std::string trace_dir;
  std::string out_dir;
  std::string commit = "unknown";
  bool list = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: tfr_perf --workload NAME|all [--seed S] [--seconds N]"
               " [--quick]\n"
               "                [--trace-dir DIR] [--out DIR] [--commit ID]\n"
               "       tfr_perf --list\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      args.list = true;
    } else if (arg == "--quick") {
      args.options.quick = true;
    } else if (arg == "--workload" && has_value) {
      args.options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.options.seconds = std::strtod(argv[++i], nullptr);
      if (!(args.options.seconds > 0)) return false;
    } else if (arg == "--trace-dir" && has_value) {
      args.trace_dir = argv[++i];
      args.options.trace = true;
    } else if (arg == "--out" && has_value) {
      args.out_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      args.commit = argv[++i];
    } else {
      return false;
    }
  }
  return args.list || !args.options.workload.empty();
}

std::string specs_json(const std::vector<MetricSpec>& specs) {
  std::string out = "[";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonObject().str("name", specs[i].name).str("unit", specs[i].unit)
               .dump();
  }
  return out + "]";
}

int list() {
  std::string workloads = "[";
  for (const Workload& w : kWorkloads) {
    if (workloads.size() > 1) workloads += ", ";
    workloads += JsonObject().str("name", w.name).str("why", w.why).dump();
  }
  workloads += "]";
  std::printf("%s\n", JsonObject()
                          .raw("workloads", workloads)
                          .raw("end_to_end", specs_json(end_to_end_metrics()))
                          .raw("per_layer", specs_json(per_layer_metrics()))
                          .dump()
                          .c_str());
  return 0;
}

/// --workload all: one child process per workload, one after another.
int run_all(int argc, char** argv) {
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args(argv, argv + argc);
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == "--workload") args[i + 1] = w.name;
    std::vector<char*> child_argv;
    for (std::string& a : args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    pid_t pid = 0;
    int status = 0;
    const bool ok =
        posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                    child_argv.data(), environ) == 0 &&
        waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0;
    std::printf("[tfr_perf] %s: %s\n", w.name, ok ? "ok" : "FAILED");
    std::fflush(stdout);
    if (!ok) ++failures;
  }
  std::printf("[tfr_perf] %d of %zu workloads failed\n", failures,
              std::size(kWorkloads));
  return failures == 0 ? 0 : 1;
}

/// Peak resident set of this process image.  VmHWM restarts at exec;
/// getrusage's ru_maxrss would carry over the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string host_json() {
  std::string os = "unknown";
  utsname names{};
  if (uname(&names) == 0)
    os = std::string(names.sysname) + " " + names.release + " " +
         names.machine;
  return JsonObject()
      .integer("nproc", std::thread::hardware_concurrency())
      .str("os", os)
      .dump();
}

struct Reported {
  std::string name;
  std::string unit;
  double value = 0;
  bool exact = false;  ///< per-layer: MetricSpec::exact
  /// End-to-end only: the geometric mean over the parts of the samples'
  /// quartiles, the sample count, and per part its value and every sample
  /// (JSON objects keyed by part).
  Quartiles samples;
  std::size_t count = 0;
  std::string parts;
  std::string raw;
};

/// One end-to-end metric: the geometric mean over its parts of each
/// part's best sample (or median sample, see Result::median_of_samples).
Reported summarize(const MetricSpec& spec,
                   const std::map<std::string, std::vector<double>>& parts,
                   bool median_of_samples) {
  std::vector<double> values, q1s, medians, q3s;
  std::size_t count = 0;
  JsonObject part_values, raw;
  for (const auto& [part, samples] : parts) {
    const Quartiles q = quartiles(samples);
    const double value =
        median_of_samples ? q.median
        : spec.higher_is_better
            ? *std::max_element(samples.begin(), samples.end())
            : *std::min_element(samples.begin(), samples.end());
    values.push_back(value);
    q1s.push_back(q.q1);
    medians.push_back(q.median);
    q3s.push_back(q.q3);
    count += samples.size();
    part_values.num(part, value);
    raw.raw(part, json_array(samples));
  }
  return {spec.name,
          spec.unit,
          geomean(values),
          false,
          {geomean(q1s), geomean(medians), geomean(q3s)},
          count,
          part_values.dump(),
          raw.dump()};
}

/// The metrics this run reports, in table order; gates a missing one.
std::vector<Reported> collect(const Workload& workload, Result& result) {
  std::vector<Reported> out;
  if (!result.trace) {
    result.series["peak_rss_mb"]["process"] = {peak_rss_mb()};
    for (const MetricSpec& spec : end_to_end_metrics()) {
      const auto it = result.series.find(spec.name);
      if (it == result.series.end() || it->second.empty()) {
        result.gate(false, "metric " + spec.name + " measured");
        continue;
      }
      out.push_back(summarize(spec, it->second, result.median_of_samples));
    }
    return out;
  }
  for (const MetricSpec& spec : per_layer_metrics()) {
    const auto it = result.layer.find(spec.name);
    const bool expected =
        spec.source == Source::kAll || spec.source == workload.source;
    const bool measured = it != result.layer.end();
    result.gate(measured || !expected, "metric " + spec.name + " measured");
    Reported& reported = out.emplace_back();
    reported.name = spec.name;
    reported.unit = spec.unit;
    reported.value = measured ? it->second : 0;
    reported.exact = spec.exact;
  }
  return out;
}

/// The metrics as JSON; `full` (the result record) adds each end-to-end
/// metric's sample quartiles, parts and samples, and marks exact metrics.
std::string metrics_json(const std::vector<Reported>& metrics, bool full) {
  JsonObject object;
  for (const Reported& m : metrics) {
    JsonObject entry;
    entry.num("value", m.value).str("unit", m.unit);
    if (full && m.exact) entry.raw("exact", "true");
    if (full && m.count > 0) {
      entry.integer("samples", m.count)
          .num("q1", m.samples.q1)
          .num("median", m.samples.median)
          .num("q3", m.samples.q3)
          .raw("parts", m.parts)
          .raw("raw", m.raw);
    }
    object.raw(m.name, entry.dump());
  }
  return object.dump();
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path);
  file << text << "\n";
  return static_cast<bool>(file);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  std::string s = text.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// Chrome trace events for the spans of the traced pass.
std::string chrome_trace(const SpanLog& log) {
  std::string events = "[";
  for (const SpanLog::Span& span : log.spans()) {
    if (events.size() > 1) events += ",\n";
    const std::string parent =
        span.parent < 0 ? ""
                        : log.spans()[static_cast<std::size_t>(span.parent)]
                              .name;
    events += JsonObject()
                  .str("name", span.name)
                  .str("cat", layer_of(span.name))
                  .str("ph", "X")
                  .num("ts", span.start_s * 1e6)
                  .num("dur", (span.end_s - span.start_s) * 1e6)
                  .num("pid", 1)
                  .num("tid", 1)
                  .raw("args", JsonObject().str("parent", parent).dump())
                  .dump();
  }
  return JsonObject()
      .raw("traceEvents", events + "]")
      .str("displayTimeUnit", "ms")
      .dump();
}

/// Per span name and per layer: count, total and self time (duration less
/// the time its child spans cover), and self time's share of the traced
/// pass.
std::string layers_json(const Result& result) {
  const std::vector<SpanLog::Span>& spans = result.spans.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanLog::Span& span : spans)
    if (span.parent >= 0)
      child_s[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
  struct Totals {
    int count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> by_span;
  std::map<std::string, Totals> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double total = spans[i].end_s - spans[i].start_s;
    const double self = total - child_s[i];
    for (Totals* t : {&by_span[spans[i].name],
                      &by_layer[layer_of(spans[i].name)]}) {
      ++t->count;
      t->total_s += total;
      t->self_s += self;
    }
  }
  auto table = [&](const std::map<std::string, Totals>& totals) {
    JsonObject object;
    for (const auto& [name, t] : totals) {
      object.raw(name, JsonObject()
                           .num("count", t.count)
                           .num("total_s", t.total_s)
                           .num("self_s", t.self_s)
                           .num("share", t.self_s / result.traced_wall_s)
                           .dump());
    }
    return object.dump();
  };
  return JsonObject()
      .num("wall_s", result.traced_wall_s)
      .raw("spans", table(by_span))
      .raw("layers", table(by_layer))
      .dump();
}

/// Writes the Chrome trace and this workload's layer table, then rebuilds
/// DIR/layers.json from every workload's table in the directory.
bool write_trace(const std::string& dir, const Result& result) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  bool ok = write_file(fs::path(dir) / (result.workload + ".trace.json"),
                       chrome_trace(result.spans)) &&
            write_file(fs::path(dir) / (result.workload + ".layers.json"),
                       layers_json(result));
  std::vector<fs::path> tables;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 && name.ends_with(".layers.json"))
      tables.push_back(entry.path());
  }
  std::sort(tables.begin(), tables.end());
  JsonObject merged;
  for (const fs::path& table : tables) {
    const std::string name = table.filename().string();
    merged.raw(name.substr(0, name.size() - 12), read_file(table));
  }
  return write_file(fs::path(dir) / "layers.json", merged.dump()) && ok;
}

int run_one(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.options.workload == w.name) workload = &w;
  if (workload == nullptr) {
    std::fprintf(stderr, "tfr_perf: unknown workload '%s'\n",
                 args.options.workload.c_str());
    return usage();
  }

  Result result;
  result.workload = workload->name;
  result.trace = args.options.trace;
  try {
    workload->run(args.options, result);
    if (result.trace) run_probes(args.options, result);
  } catch (const std::exception& e) {
    result.gate(false, std::string("no exception: ") + e.what());
  }
  const std::vector<Reported> metrics = collect(*workload, result);
  if (result.trace && !write_trace(args.trace_dir, result))
    result.gate(false, "trace files written to " + args.trace_dir);

  std::printf("[tfr_perf] %s (%s run, seed %llu)\n", workload->name,
              result.trace ? "traced" : "end-to-end",
              static_cast<unsigned long long>(args.options.seed));
  for (const Reported& m : metrics) {
    std::printf("  %-44s %16.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.count > 1 && result.median_of_samples)
      std::printf("  (median of %zu samples)", m.count);
    else if (m.count > 1)
      std::printf("  (best of %zu samples; median %.6g)", m.count,
                  m.samples.median);
    std::printf("\n");
  }
  for (const std::string& failure : result.failures)
    std::printf("  FAIL: %s\n", failure.c_str());

  const std::string correct = result.correct() ? "true" : "false";
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string file = result.workload +
                             (result.trace ? ".trace" : "") + ".result.json";
    std::string failures = "[";
    for (const std::string& f : result.failures)
      failures += (failures.size() > 1 ? ", " : "") + json_string(f);
    failures += "]";
    const std::string record =
        JsonObject()
            .str("schema", "tfr-perf-v1")
            .str("workload", result.workload)
            .str("mode", result.trace ? "trace" : "end_to_end")
            .integer("seed", args.options.seed)
            .num("seconds", args.options.seconds)
            .raw("quick", args.options.quick ? "true" : "false")
            .str("commit", args.commit)
            .raw("host", host_json())
            .raw("correct", correct)
            .integer("attempted", result.attempted)
            .integer("failed", result.failed)
            .raw("failures", failures)
            .raw("metrics", metrics_json(metrics, true))
            .dump();
    if (!write_file(std::filesystem::path(args.out_dir) / file, record)) {
      std::fprintf(stderr, "tfr_perf: cannot write %s\n", file.c_str());
      return 1;
    }
  }

  std::printf("%s\n", JsonObject()
                          .raw("correct", correct)
                          .integer("attempted", result.attempted)
                          .integer("failed", result.failed)
                          .raw("metrics", metrics_json(metrics, false))
                          .dump()
                          .c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, so a repeat reuses pages an earlier
  // one already faulted in: fresh pages cost whatever the host (a VM
  // balloon reporting free pages, say) makes them cost at that moment.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  // The Wing–Gong checker recurses once per operation of a history: 32k
  // operations take ~5 MB of stack in an optimized build.  Let the main
  // thread's stack grow to 64 MB.
  rlimit stack{};
  if (getrlimit(RLIMIT_STACK, &stack) == 0 && stack.rlim_cur < (64u << 20)) {
    stack.rlim_cur = std::min<rlim_t>(stack.rlim_max, 64u << 20);
    setrlimit(RLIMIT_STACK, &stack);
  }
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (args.list) return list();
  if (args.options.workload == "all") return run_all(argc, argv);
  return run_one(args);
}
