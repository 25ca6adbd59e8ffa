#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perf {

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method "exclusive": m = n + 1, cut i of 4.
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int SpanLog::begin(std::string name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), parent,
                    std::chrono::duration<double>(Clock::now() - epoch_).count(),
                    0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void Result::gate(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"throughput_per_s", "1/s", Source::kAll, true},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

namespace {

MetricSpec exact(MetricSpec spec) {
  spec.exact = true;
  return spec;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    using S = Source;
    std::vector<MetricSpec> m = {
        {"trace_overhead_frac", "ratio", S::kAll},
        {"service.boot_frac", "ratio", S::kService},
        {"service.load_frac", "ratio", S::kService},
        exact({"service.batches", "count", S::kService}),
        exact({"service.rejects_per_session", "ratio", S::kService}),
        exact({"service.latency_p50_delta", "delta", S::kService}),
        exact({"service.latency_p999_delta", "delta", S::kService}),
        {"service.queue_ns", "ns", S::kAll},
        {"service.batch_ns", "ns", S::kAll},
        {"spec.check_frac", "ratio", S::kService},
        exact({"spec.checked_ops", "count", S::kService}),
        {"spec.checked_ops_per_s", "1/s", S::kService},
        {"spec.check_ns_per_op.n1k", "ns", S::kAll},
        {"spec.check_ns_per_op.n8k", "ns", S::kAll},
        {"spec.check_ns_per_op.n32k", "ns", S::kAll},
        exact({"sim.events_per_session", "count", S::kService}),
        {"sim.events_per_s", "1/s", S::kService},
        {"sim.access_ns", "ns", S::kAll},
        {"sim.task_ns", "ns", S::kAll},
        exact({"msg.messages_per_session", "count", S::kService}),
        exact({"abd.sessions_per_op", "ratio", S::kService}),
        exact({"abd.retries_per_op", "ratio", S::kService}),
        {"msg.send_recv_ns", "ns", S::kAll},
        {"abd.op_ns", "ns", S::kAll},
        exact({"abd.events_per_op", "count", S::kAll}),
        exact({"alloc.per_session", "count", S::kService}),
        exact({"alloc.per_task", "count", S::kAll}),
        exact({"alloc.per_message", "count", S::kAll}),
        exact({"alloc.per_abd_op", "count", S::kAll}),
        exact({"alloc.per_execution", "count", S::kMcheck}),
    };
    for (const std::string& check : mcheck_check_names()) {
      m.push_back({"mcheck." + check + ".exec_per_s", "1/s", S::kMcheck});
      m.push_back(exact({"mcheck." + check + ".executions", "count",
                         S::kMcheck}));
      m.push_back(exact({"mcheck." + check + ".transitions", "count",
                         S::kMcheck}));
    }
    const std::vector<MetricSpec> tail = {
        {"mcheck.sim_exec_per_s", "1/s", S::kMcheck},
        {"mcheck.rt_exec_per_s", "1/s", S::kMcheck},
        {"mcheck.ns_per_transition.sim", "ns", S::kAll},
        {"mcheck.ns_per_transition.rt", "ns", S::kAll},
        {"rt.tfr_acq_per_s", "1/s", S::kRt},
        {"rt.atomic_mutex_acq_per_s", "1/s", S::kRt},
        {"rt.std_mutex_acq_per_s", "1/s", S::kRt},
        {"rt.uncontended_ns.tfr", "ns", S::kAll},
        {"rt.uncontended_ns.atomic_mutex", "ns", S::kAll},
        {"rt.uncontended_ns.std_mutex", "ns", S::kAll},
        {"rt.lock_p99_us.tfr", "us", S::kAll},
        {"rt.lock_p99_us.atomic_mutex", "us", S::kAll},
        {"rt.lock_p99_us.std_mutex", "us", S::kAll},
        {"rt.cpu_wall.tfr", "ratio", S::kRt},
        {"rt.cpu_wall.atomic_mutex", "ratio", S::kRt},
        {"rt.cpu_wall.std_mutex", "ratio", S::kRt},
        {"rt.tfr_retried_frac", "ratio", S::kRt},
        {"obs.sink_ns_per_event", "ns", S::kAll},
        exact({"obs.events_per_session", "count", S::kAll}),
        exact({"obs.dropped", "count", S::kAll}),
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  }();
  return metrics;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, ec == std::errc() ? end : buf);
}

JsonObject& JsonObject::raw(std::string_view key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

}  // namespace perf
