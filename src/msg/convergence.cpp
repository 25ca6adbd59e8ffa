#include "tfr/msg/convergence.hpp"

#include <algorithm>
#include <string>

#include "tfr/common/contracts.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/spec/linearizability.hpp"

namespace tfr::msg {

std::size_t ConvergenceMonitor::on_invoke(int node, int reg, bool is_write,
                                          std::int64_t value, sim::Time now) {
  spec::History& history = histories_[reg];
  const std::size_t inner =
      history.invoke(node, is_write ? "write" : "read", value, now);
  tokens_.push_back(TokenEntry{reg, inner, false});
  return tokens_.size() - 1;
}

void ConvergenceMonitor::on_response(std::size_t token, std::int64_t value,
                                     sim::Time now) {
  TFR_REQUIRE(token < tokens_.size());
  TokenEntry& entry = tokens_[token];
  TFR_REQUIRE(!entry.done);
  entry.done = true;
  histories_[entry.reg].respond(entry.inner, value, now);
}

void ConvergenceMonitor::violation(const char* what) {
  ++safety_violations_;
  if (simulation_ != nullptr) {
    simulation_->emit({simulation_->now(), -1, obs::EventKind::kViolation, 0,
                       0, simulation_->trace_label(what)});
  }
}

ConvergenceMonitor::Report ConvergenceMonitor::check() {
  safety_violations_ = 0;
  Report report;
  report.anchor =
      adversary_ != nullptr ? std::max<sim::Time>(adversary_->last_fault_time(), 0)
                            : 0;

  for (const TokenEntry& entry : tokens_) {
    if (!entry.done) ++report.unfinished;
  }
  if (report.unfinished > 0) violation("unfinished-op");

  // One checker for every register's history: its buffers are sized once.
  spec::LinearizabilityChecker checker;
  const spec::RegisterModel model;
  for (const auto& [reg, history] : histories_) {
    const std::vector<spec::Operation> ops = history.completed();
    report.operations += ops.size();
    if (!checker.check(ops, model).linearizable) {
      report.linearizable = false;
      violation("linearizability");
    }
    if (bound_ > 0) {
      for (const spec::Operation& op : ops) {
        // Only completions after the anchor are convergence evidence;
        // operations finished mid-faults answer to linearizability alone.
        if (op.responded_at <= report.anchor) continue;
        const sim::Time start = std::max<sim::Time>(op.invoked_at,
                                                    report.anchor);
        const sim::Duration lag = op.responded_at - start;
        report.worst_lag = std::max(report.worst_lag, lag);
        if (lag > bound_) report.converged = false;
      }
    }
  }
  if (!report.converged) violation("convergence");
  return report;
}

}  // namespace tfr::msg
