#include "tfr/core/consensus_sim.hpp"

#include "tfr/common/contracts.hpp"

namespace tfr::core {

SimConsensus::SimConsensus(sim::RegisterSpace& space, sim::Duration delta,
                           std::size_t max_rounds)
    : RoundLoop(delta, max_rounds),
      x0_(space, 0, "x0"),
      x1_(space, 0, "x1"),
      y_(space, sim::kBot, "y"),
      decide_(space, sim::kBot, "decide") {
  if (max_rounds > 0) {
    // Finitely many registers, allocated up front (§2.1 remark).
    x0_.at(max_rounds - 1);
    x1_.at(max_rounds - 1);
    y_.at(max_rounds - 1);
  }
}

sim::Register<int>& SimConsensus::flag(int value, std::size_t round) {
  return value == 0 ? x0_.at(round) : x1_.at(round);
}

void SimConsensus::fault_reset_flag(int value, std::size_t round) {
  flag(value, round).poke(0);  // untimed-ok: memory-failure injection
}

void SimConsensus::fault_set_flag(int value, std::size_t round) {
  flag(value, round).poke(1);  // untimed-ok: memory-failure injection
}

void SimConsensus::fault_overwrite_proposal(std::size_t round, int v) {
  y_.at(round).poke(v);  // untimed-ok: memory-failure injection
}

void SimConsensus::fault_reset_decide() {
  decide_.poke(sim::kBot);  // untimed-ok: memory-failure injection
}

ConsensusOutcome run_consensus(const std::vector<int>& inputs,
                               sim::Duration algorithm_delta,
                               std::unique_ptr<sim::TimingModel> timing,
                               std::uint64_t seed, sim::Time limit,
                               obs::TraceSink* sink) {
  TFR_REQUIRE(!inputs.empty());
  sim::Simulation simulation(std::move(timing), {.seed = seed, .sink = sink});
  SimConsensus consensus(simulation.space(), algorithm_delta);
  consensus.monitor().set_trace_sink(sink);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
    simulation.spawn([&consensus, input = inputs[i]](sim::Env env) {
      return consensus.participant(env, input);
    });
  }
  simulation.run(limit);

  ConsensusOutcome outcome;
  outcome.all_decided = consensus.monitor().all_decided(inputs.size());
  if (consensus.monitor().decided_count() > 0)
    outcome.value = consensus.decided_value();
  outcome.first_decision = consensus.monitor().first_decision_time();
  outcome.last_decision = consensus.monitor().last_decision_time();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& s = simulation.stats(static_cast<sim::Pid>(i));
    outcome.steps.push_back(s.accesses());
    outcome.delays.push_back(s.delays);
    if (consensus.monitor().has_decided(static_cast<sim::Pid>(i)))
      outcome.decision_rounds.push_back(
          consensus.decision_round(static_cast<sim::Pid>(i)));
  }
  outcome.max_round = consensus.max_round();
  outcome.registers_allocated = simulation.space().allocated();
  return outcome;
}

AblationOutcome run_ablation(AblationVariant variant,
                             const std::vector<int>& inputs,
                             sim::Duration delta,
                             std::unique_ptr<sim::TimingModel> timing,
                             std::uint64_t seed, sim::Time limit) {
  TFR_REQUIRE(!inputs.empty());
  sim::Simulation simulation(std::move(timing), {.seed = seed});
  SimConsensus consensus(simulation.space(), delta);
  consensus.monitor().throw_on_violation(false);  // ablations count failures

  using Participant = sim::Process (SimConsensus::*)(sim::Env, int);
  const Participant participant =
      variant == AblationVariant::kYFirst
          ? &SimConsensus::participant<AblationVariant::kYFirst>
      : variant == AblationVariant::kNoDelay
          ? &SimConsensus::participant<AblationVariant::kNoDelay>
          : &SimConsensus::participant<AblationVariant::kFaithful>;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    consensus.monitor().set_input(static_cast<sim::Pid>(i), inputs[i]);
    simulation.spawn(
        [&consensus, participant, input = inputs[i]](sim::Env env) {
          return (consensus.*participant)(env, input);
        });
  }
  simulation.run(limit);

  AblationOutcome outcome;
  outcome.all_decided = consensus.monitor().all_decided(inputs.size());
  outcome.agreement_violations = consensus.monitor().agreement_violations();
  outcome.max_round = consensus.max_round();
  return outcome;
}

}  // namespace tfr::core
