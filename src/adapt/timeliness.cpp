#include "tfr/adapt/controller.hpp"

#include <algorithm>
#include <cmath>

#include "tfr/common/contracts.hpp"

namespace tfr::adapt {

TimelinessEstimator::TimelinessEstimator(Config config)
    : config_(config), boost_(config.initial), estimate_(config.initial) {
  TFR_REQUIRE(config.floor >= 1);
  TFR_REQUIRE(config.ceiling >= config.floor);
  TFR_REQUIRE(config.initial >= config.floor &&
              config.initial <= config.ceiling);
  TFR_REQUIRE(config.window >= 1);
  TFR_REQUIRE(config.quantile > 0.0 && config.quantile <= 1.0);
  TFR_REQUIRE(config.headroom >= 1.0);
  TFR_REQUIRE(config.grow_factor > 1.0);
  TFR_REQUIRE(config.decay_step >= 1);
  TFR_REQUIRE(config.clean_threshold >= 1);
  TFR_REQUIRE(config.boost_cap >= 0.0);
}

Duration TimelinessEstimator::clamped(Duration value) const {
  return std::clamp(value, config_.floor, config_.ceiling);
}

Duration TimelinessEstimator::channel_quantile(int channel) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return 0;
  return it->second.quantile;
}

Duration TimelinessEstimator::estimate_for(int channel) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end() || it->second.samples.empty()) return estimate_;
  const auto margined = static_cast<Duration>(std::ceil(
      static_cast<double>(it->second.quantile) * config_.headroom));
  return clamped(margined);
}

std::vector<std::pair<int, Duration>> TimelinessEstimator::channel_quantiles()
    const {
  std::vector<std::pair<int, Duration>> edges;
  edges.reserve(channels_.size());
  for (const auto& [id, ring] : channels_) {
    if (!ring.samples.empty()) edges.emplace_back(id, ring.quantile);
  }
  return edges;
}

Duration TimelinessEstimator::quantile_of(const Channel& ring) const {
  if (ring.samples.empty()) return 0;
  std::vector<Duration> sorted = ring.samples;
  std::sort(sorted.begin(), sorted.end());
  // Index of the q-th order statistic of `count` samples: for q == 1 the
  // maximum; a single sample is every quantile of itself.
  const auto count = sorted.size();
  std::size_t index;
  if (config_.quantile >= 1.0) {
    index = count - 1;
  } else {
    index = static_cast<std::size_t>(config_.quantile *
                                     static_cast<double>(count));
    index = std::min(index, count - 1);
  }
  return sorted[index];
}

void TimelinessEstimator::recompute() {
  const auto margined = static_cast<Duration>(
      std::ceil(static_cast<double>(worst_) * config_.headroom));
  estimate_ = clamped(std::max(margined, boost_));
}

void TimelinessEstimator::handle_observation(int channel, Duration observed) {
  TFR_REQUIRE(observed >= 0);
  Channel& ring = channels_[channel];
  if (ring.samples.size() < config_.window) {
    ring.samples.push_back(observed);
  } else {
    ring.samples[ring.next] = observed;
    ring.next = (ring.next + 1) % config_.window;
  }
  const Duration before = ring.quantile;
  ring.quantile = quantile_of(ring);
  if (ring.quantile >= worst_) {
    worst_ = ring.quantile;
  } else if (before == worst_) {
    // The worst channel improved; rescan for the new max (rare path).
    worst_ = 0;
    for (const auto& [id, other] : channels_) {
      (void)id;
      worst_ = std::max(worst_, other.quantile);
    }
  }
  recompute();
}

void TimelinessEstimator::handle_failure() {
  clean_run_ = 0;
  // Observations alone cannot model a delay that never completed inside a
  // window; grow a boost floor off the *current* estimate, AIMD-style.
  Duration grown = static_cast<Duration>(
      std::ceil(static_cast<double>(estimate_) * config_.grow_factor));
  grown = std::max(estimate_ + 1, grown);
  const auto margined = static_cast<Duration>(
      std::ceil(static_cast<double>(worst_) * config_.headroom));
  if (config_.boost_cap > 0.0 && margined > 0) {
    const auto cap = static_cast<Duration>(
        std::ceil(static_cast<double>(margined) * config_.boost_cap));
    grown = std::min(grown, cap);
  }
  boost_ = clamped(grown);
  recompute();
}

void TimelinessEstimator::handle_clean() {
  if (++clean_run_ < config_.clean_threshold) return;
  clean_run_ = 0;
  if (boost_ <= config_.floor) return;
  boost_ = std::max(config_.floor, boost_ - config_.decay_step);
  recompute();
}

}  // namespace tfr::adapt
