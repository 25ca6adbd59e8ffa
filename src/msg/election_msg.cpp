#include "tfr/msg/election_msg.hpp"

#include <algorithm>
#include <bit>

#include "tfr/common/contracts.hpp"

namespace tfr::msg {

TimedElection::TimedElection(Network& net, int n, sim::Duration wait)
    : net_(&net), n_(n), wait_(wait) {
  TFR_REQUIRE(n >= 1);
  TFR_REQUIRE(wait >= 1);
  monitor_.throw_on_violation(false);  // violations are measured, not fatal
}

sim::Process TimedElection::participant(sim::Env env, int node) {
  monitor_.set_input(node, node);
  // Announce ourselves to everyone (including ourselves, uniformly).
  Message hello;
  hello.type = kHello;
  hello.value = node;
  co_await net_->multicast(env, node, 0, n_, hello);
  // Wait out the assumed delivery bound.
  co_await env.delay(wait_);
  // Drain whatever has arrived; elect the minimum id heard.
  int leader = node;
  for (;;) {
    const auto m = co_await net_->try_recv(env, node);
    if (!m.has_value()) break;
    if (m->type == kHello)
      leader = std::min(leader, static_cast<int>(m->value));
  }
  monitor_.on_decide(node, leader, env.now());
}

MsgElection::MsgElection(Network& net, int n, sim::Duration delta,
                         RetryPolicy policy)
    : net_(&net), n_(n), policy_(policy) {
  TFR_REQUIRE(n >= 1 && n <= (1 << kIdBits));
  const int bits = std::bit_width(static_cast<unsigned>(n - 1));
  bits_.reserve(static_cast<std::size_t>(bits));
  for (int k = 0; k < bits; ++k)
    bits_.push_back(
        std::make_unique<MsgConsensus>(net, n, delta, bit_base(k), policy));
}

sim::Process MsgElection::participant(sim::Env env, int node) {
  monitor_.set_input(node, node);
  AbdClient client(*net_, node, n_, policy_);
  const int leader = co_await elect(env, client, node);
  monitor_.on_decide(node, leader, env.now());
}

}  // namespace tfr::msg
