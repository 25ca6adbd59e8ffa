// Shared plumbing for tfr_perf: the wall clock, quartiles, the in-memory
// span log, the metric tables and the result every workload fills.
//
// End-to-end metrics are measured with tracing off.  A run is many short
// samples (tens of milliseconds each) taken in rounds over the whole run,
// and a metric reports the best sample of each of its parts: on a shared
// host, co-tenants slow a sample by up to ~60% for seconds at a time, so
// the median sample flips between a fast and a slow mode from run to run
// while the best sample stays within a few percent (README, "Why the best
// sample").  Contended locks report their median sample instead
// (Result::median_of_samples).
//
// Per-layer metrics come from a separate traced run: spans recorded around
// each call the harness makes into a layer, counts read at the same
// boundaries, and a ladder of probes that time one layer call each.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tfr::sim {
class Simulation;
}

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Global operator new / new[] calls so far (alloc_count.cpp).
std::uint64_t allocations();

/// Timed simulator events so far — register accesses and delays — summed
/// over every process of `s` (probes.cpp).
std::uint64_t timed_events(const tfr::sim::Simulation& s);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (method "exclusive"); one value is its own quartiles.  Needs a value.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

double geomean(const std::vector<double>& values);

/// Spans around harness calls into a layer: name, start, end, parent.
/// Kept in memory and written out when the run ends.  A disabled log
/// records nothing, so one code path serves the untraced and traced
/// passes.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  int begin(std::string name, int parent = -1);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, int parent = -1)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Which workloads produce a per-layer metric.  Probes run in every
/// traced run; a workload-derived metric of a layer the workload does not
/// exercise reads 0.
enum class Source { kAll, kService, kMcheck, kRt };

struct MetricSpec {
  std::string name;
  std::string unit;
  Source source = Source::kAll;
  /// End-to-end: a higher sample is the better one (else lower).
  bool higher_is_better = false;
  /// Per-layer: the value repeats exactly for one seed and one build (a
  /// count, or virtual time), so compare.py compares it exactly.
  bool exact = false;
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The names mcheck_suite runs, in order (mcheck.cpp); the per-layer table
/// has three metrics for each.
const std::vector<std::string>& mcheck_check_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool quick = false;  ///< a tenth of a sample, one round, one set-up
  bool trace = false;
};

struct Result {
  std::string workload;
  bool trace = false;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed correctness gates
  void gate(bool ok, const std::string& what);

  /// End-to-end samples: metric -> part -> one value per sample.  A metric
  /// reports the geometric mean over its parts of each part's best sample,
  /// or of its median sample when `median_of_samples`.
  std::map<std::string, std::map<std::string, std::vector<double>>> series;
  /// Set where thread scheduling is part of the sampled work (contended
  /// locks): a sample's luck is then the code's behaviour, not the host's,
  /// and the best sample is a lucky schedule.  Elsewhere the work is fixed
  /// and interference only adds time, so the best sample is the code's.
  bool median_of_samples = false;
  /// Per-layer values (traced run only).
  std::map<std::string, double> layer;

  SpanLog spans{true};
  double traced_wall_s = 0;  ///< wall of the traced pass the spans cover

  bool correct() const { return failures.empty() && failed == 0; }
};

/// Set-ups per end-to-end run, one setup_s sample each.
constexpr int kSetups = 10;

/// The end-to-end schedule: `setup`, then `round` (one short sample of
/// every part) until the run has measured `seconds`, stopping before a
/// round that would overrun it.  `setup` runs again at each tenth of the
/// run, so set-up samples come from the whole run as round samples do.
/// Quick: one set-up and one round.
template <class Setup, class Round>
void measure(const Options& options, Result& result, Setup&& setup,
             Round&& round) {
  const Clock::time_point start = Clock::now();
  int setups = 0;
  auto timed_setup = [&] {
    const Clock::time_point begin = Clock::now();
    setup();
    result.series["setup_s"]["setup"].push_back(seconds_since(begin));
    ++setups;
  };
  timed_setup();
  for (;;) {
    const Clock::time_point begin = Clock::now();
    round();
    const double last = seconds_since(begin);
    if (options.quick) return;
    const double elapsed = seconds_since(start);
    if (elapsed + last > options.seconds) return;
    if (setups < kSetups && elapsed >= options.seconds * setups / kSetups)
      timed_setup();
  }
}

// Minimal JSON emission (compact, full double precision).
std::string json_string(std::string_view text);
std::string json_number(double value);

/// Builds one JSON object member by member.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json);
  JsonObject& num(std::string_view key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& integer(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, json_string(value));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& values);

// Workloads and the probe ladder.
void run_service_steady(const Options& options, Result& result);
void run_service_degraded(const Options& options, Result& result);
void run_mcheck_suite(const Options& options, Result& result);
void run_rt_locks(const Options& options, Result& result);

/// The probe ladder: each probe times one layer call at a fixed shape.
/// Every traced run runs all of them.
void run_probes(const Options& options, Result& result);
void probe_obs(const Options& options, Result& result);
void probe_mcheck(const Options& options, Result& result);
void probe_rt(const Options& options, Result& result);

}  // namespace perf
