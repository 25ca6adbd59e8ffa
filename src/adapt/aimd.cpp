#include "tfr/adapt/controller.hpp"

#include <algorithm>
#include <cmath>

#include "tfr/common/contracts.hpp"

namespace tfr::adapt {

namespace {

void check_config(const AimdConfig& config) {
  TFR_REQUIRE(config.floor >= 1);
  TFR_REQUIRE(config.ceiling >= config.floor);
  TFR_REQUIRE(config.initial >= config.floor &&
              config.initial <= config.ceiling);
  TFR_REQUIRE(config.grow_factor > 1.0);
  TFR_REQUIRE(config.decay_step >= 1);
  TFR_REQUIRE(config.clean_threshold >= 1);
}

/// The multiplicative-increase step: ceil(estimate * grow_factor), at
/// least estimate + 1, capped at the ceiling.
Duration grown_estimate(Duration estimate, const AimdConfig& config) {
  const auto grown = static_cast<Duration>(
      std::ceil(static_cast<double>(estimate) * config.grow_factor));
  return std::min(config.ceiling, std::max(estimate + 1, grown));
}

}  // namespace

// ---------------------------------------------------------------------------
// Aimd
//
// CAS loops instead of plain stores, all relaxed: the estimate is
// advisory, so the only requirement is that each cell is itself untorn —
// no cross-cell ordering carries meaning.

Aimd::Aimd(Config config) : config_(config), estimate_(config.initial) {
  check_config(config);
}

void Aimd::handle_failure() {
  clean_run_.store(0, std::memory_order_relaxed);  // mo-ok: advisory estimate
  Duration estimate =
      estimate_.load(std::memory_order_relaxed);  // mo-ok: advisory estimate
  for (;;) {
    const Duration next = grown_estimate(estimate, config_);
    if (next <= estimate) return;  // already at the ceiling
    if (estimate_.compare_exchange_weak(
            estimate, next,
            std::memory_order_relaxed)) {  // mo-ok: advisory estimate
      grows_.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
      return;
    }
  }
}

void Aimd::handle_clean() {
  const int run =
      clean_run_.fetch_add(1, std::memory_order_relaxed) + 1;  // mo-ok: advisory
  if (run < config_.clean_threshold) return;
  clean_run_.store(0, std::memory_order_relaxed);  // mo-ok: advisory estimate
  Duration estimate =
      estimate_.load(std::memory_order_relaxed);  // mo-ok: advisory estimate
  for (;;) {
    const Duration next = estimate - config_.decay_step;
    if (next < config_.floor || next >= estimate) return;
    if (estimate_.compare_exchange_weak(
            estimate, next,
            std::memory_order_relaxed)) {  // mo-ok: advisory estimate
      decays_.fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistic
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// ManualDelta

ManualDelta::ManualDelta(Duration value) : value_(value) {
  TFR_REQUIRE(value >= 1);
}

void ManualDelta::set(Duration value) {
  TFR_REQUIRE(value >= 1);
  value_ = value;
}

}  // namespace tfr::adapt
