#include "tfr/baseline/unknown_bound_sim.hpp"

#include <algorithm>

#include "tfr/common/contracts.hpp"

namespace tfr::baseline {

SimUnknownBoundConsensus::SimUnknownBoundConsensus(
    sim::RegisterSpace& space, sim::Duration initial_estimate)
    : RoundLoop(initial_estimate),  // round 0's delay
      x0_(space, 0, "aat.x0"),
      x1_(space, 0, "aat.x1"),
      y_(space, sim::kBot, "aat.y"),
      decide_(space, sim::kBot, "aat.decide") {}

sim::Register<int>& SimUnknownBoundConsensus::flag(int value,
                                                   std::size_t round) {
  return value == 0 ? x0_.at(round) : x1_.at(round);
}

sim::Duration SimUnknownBoundConsensus::round_delay(std::size_t r) const {
  // Exponential back-off of the estimate; saturate rather than overflow.
  constexpr sim::Duration kCap = sim::Duration{1} << 40;
  sim::Duration d = delta();
  for (std::size_t i = 0; i < r && d < kCap; ++i) d *= 2;
  return std::min(d, kCap);
}

sim::Process SimUnknownBoundConsensus::participant(sim::Env env, int input) {
  const int decided = co_await propose(env, input);
  monitor().on_decide(env.pid(), decided, env.now());
}

UnknownBoundOutcome run_unknown_bound_consensus(
    const std::vector<int>& inputs, sim::Duration initial_estimate,
    std::unique_ptr<sim::TimingModel> timing, std::uint64_t seed,
    sim::Time limit) {
  TFR_REQUIRE(!inputs.empty());
  sim::Simulation simulation(std::move(timing), {.seed = seed});
  SimUnknownBoundConsensus consensus(simulation.space(), initial_estimate);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
    simulation.spawn([&consensus, input = inputs[i]](sim::Env env) {
      return consensus.participant(env, input);
    });
  }
  simulation.run(limit);

  UnknownBoundOutcome outcome;
  outcome.all_decided = consensus.monitor().all_decided(inputs.size());
  if (consensus.monitor().decided_count() > 0)
    outcome.value = consensus.decided_value();
  outcome.last_decision = consensus.monitor().last_decision_time();
  outcome.max_round = consensus.max_round();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    outcome.steps.push_back(
        simulation.stats(static_cast<sim::Pid>(i)).accesses());
  return outcome;
}

}  // namespace tfr::baseline
