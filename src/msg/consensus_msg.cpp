#include "tfr/msg/consensus_msg.hpp"

#include "tfr/common/contracts.hpp"

namespace tfr::msg {

MsgConsensus::MsgConsensus(Network& net, int n, sim::Duration delta,
                           int reg_base, RetryPolicy policy)
    : RoundLoop(delta), net_(&net), n_(n), reg_base_(reg_base),
      policy_(policy) {
  TFR_REQUIRE(n >= 1);
  TFR_REQUIRE(reg_base >= 0);
  TFR_REQUIRE(net.endpoints() >= 2 * n);
}

sim::Process MsgConsensus::participant(sim::Env env, int node, int input) {
  AbdClient client(*net_, node, n_, policy_);
  const int decided = co_await propose(env, client, input);
  monitor().on_decide(node, decided, env.now());
}

}  // namespace tfr::msg
