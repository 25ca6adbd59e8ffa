#include "tfr/msg/network.hpp"

#include <algorithm>
#include <coroutine>
#include <string>

#include "tfr/common/contracts.hpp"

namespace tfr::msg {

Network::Network(sim::RegisterSpace& space, int endpoints)
    : endpoints_(endpoints) {
  TFR_REQUIRE(endpoints >= 1);
  channels_.reserve(static_cast<std::size_t>(endpoints) *
                    static_cast<std::size_t>(endpoints));
  for (int from = 0; from < endpoints; ++from) {
    for (int to = 0; to < endpoints; ++to) {
      channels_.push_back(std::make_unique<Channel>(
          space,
          "ch." + std::to_string(from) + ">" + std::to_string(to)));
    }
  }
  const auto size = static_cast<std::size_t>(endpoints);
  inbound_.reserve(size * size);
  for (int to = 0; to < endpoints; ++to) {
    for (int from = 0; from < endpoints; ++from)
      inbound_.push_back(&channel(from, to));
  }
  poll_start_.assign(size, 0);
  parked_.resize(size);
}

namespace {

/// Parks the awaiting receiver until Network::send or `deadline` wakes it.
struct ParkAwaiter {
  sim::Env env;
  sim::Time deadline;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    env.sim().park(env.pid(), h, deadline);
  }
  void await_resume() const noexcept {}
};

}  // namespace

sim::Task<void> Network::send(sim::Env env, int self, int to, Message m) {
  TFR_REQUIRE(self >= 0 && self < endpoints_);
  TFR_REQUIRE(to >= 0 && to < endpoints_);
  m.from = self;
  Channel& ch = channel(self, to);
  // Only `self` writes this channel, so the next free slot is sender-local
  // knowledge.  Slot is written BEFORE the tail so the receiver never
  // observes an unwritten slot.
  const int slot = ch.next_slot();
  SlotMeta meta;  // no adversary: deliverable at once, one copy
  if (adversary_ != nullptr) {
    // The verdict is decided at send time; the sender still pays the full
    // send cost (the network, not the sender, loses the message), and the
    // tail still advances so per-channel sequence numbers stay dense.
    const Delivery verdict = adversary_->on_send(
        env, self, to, static_cast<std::uint64_t>(slot));
    meta = {env.now() + verdict.extra_delay,
            verdict.dropped ? 0 : verdict.copies};
  }
  ch.window.push_back(meta);
  co_await env.write(ch.slots.at(static_cast<std::size_t>(slot)), m);
  co_await env.write(ch.tail, slot + 1);
  ++sent_;
  // The tail write invalidated the parked receiver's copy of this tail:
  // wake it now, or at the end of its poll pause, and have it read here
  // first — unless it already wakes no later.
  Parked& parked = parked_[static_cast<std::size_t>(to)];
  if (parked.pid >= 0) {
    parked.signalled = true;
    if (env.sim().unpark(parked.pid, std::max(env.now(), parked.not_before)))
      parked.first = self;
  }
}

sim::Task<void> Network::multicast(sim::Env env, int self, int first,
                                   int last, Message m) {
  for (int to = first; to < last; ++to) co_await send(env, self, to, m);
}

sim::Task<std::optional<Message>> Network::receive(sim::Env env, int self,
                                                   sim::Time deadline,
                                                   sim::Duration poll_every) {
  TFR_REQUIRE(self >= 0 && self < endpoints_);
  const auto row = static_cast<std::size_t>(self) *
                   static_cast<std::size_t>(endpoints_);
  int& start = poll_start_[static_cast<std::size_t>(self)];
  for (;;) {
    int from = start;
    for (int i = 0; i < endpoints_; ++i) {
      Channel& ch = *inbound_[row + static_cast<std::size_t>(from)];
      if (++from == endpoints_) from = 0;  // next sender, and the next start
      // Deliver the published copy with the earliest delivery instant that
      // has arrived; ties go to the older slot.
      ch.scanned = co_await env.read(ch.tail);
      const sim::Time now = env.now();
      int best = ch.scanned;  // none
      for (int slot = ch.low; slot < ch.scanned; ++slot) {
        const SlotMeta& e = ch.entry(slot);
        if (e.copies == 0 || e.deliver_at > now) continue;
        if (best == ch.scanned || e.deliver_at < ch.entry(best).deliver_at) {
          best = slot;
          // No slot delivers before instant 0, so a copy sent with no
          // adversary ends the search: a reliable channel reads its oldest
          // slot in O(1), however long its backlog.
          if (e.deliver_at == 0) break;
        }
      }
      if (best != ch.scanned) {
        // Before the read: a send during it may grow, and so move, the
        // window.
        --ch.entry(best).copies;
        const Message m =
            co_await env.read(ch.slots.at(static_cast<std::size_t>(best)));
        ch.pop_dead();
        start = from;
        co_return m;
      }
      // Dropped slots are dead as soon as they are published.
      ch.pop_dead();
    }
    if (env.now() >= deadline) co_return std::nullopt;
    // Check-and-park: a tail that moved since the sweep read it means a
    // send landed mid-sweep (its unpark found nobody parked), so sweep
    // again from that sender.  Otherwise every line is unchanged and
    // re-reading it would hit the cache: park until a send, the earliest
    // held slot or the deadline, and never before the poll pause ends.
    int moved = -1;
    int held_from = -1;
    sim::Time held_at = sim::kTimeNever;
    for (int i = 0, from = start; i < endpoints_; ++i) {
      Channel& ch = *inbound_[row + static_cast<std::size_t>(from)];
      // untimed-ok: the park's atomic re-check, like a futex's compare
      if (ch.tail.peek() != ch.scanned) {
        moved = from;
        break;
      }
      for (int slot = ch.low; slot < ch.scanned; ++slot) {
        const SlotMeta& e = ch.entry(slot);
        if (e.copies > 0 && e.deliver_at < held_at) {
          held_at = e.deliver_at;
          held_from = from;
        }
      }
      if (++from == endpoints_) from = 0;
    }
    if (moved >= 0) {
      start = moved;
      if (poll_every > 0) co_await env.delay(poll_every);
      continue;
    }
    Parked& parked = parked_[static_cast<std::size_t>(self)];
    parked = {env.pid(), env.now() + poll_every,
              held_at < deadline ? held_from : -1, false};
    co_await ParkAwaiter{
        env, std::max(std::min(deadline, held_at), parked.not_before)};
    if (parked.first >= 0) start = parked.first;
    parked = Parked{};
  }
}

void Network::Channel::pop_dead() {
  const int old = low;
  while (low < scanned && window[front].copies == 0) {
    ++front;
    ++low;
  }
  if (low == old) return;
  slots.release_below(static_cast<std::size_t>(low));
  // Drop the popped entries once they are half the vector (amortised O(1)).
  if (2 * front >= window.size()) {
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(front));
    front = 0;
  }
}

std::size_t Network::live_slot_chunks(int from, int to) const {
  TFR_REQUIRE(from >= 0 && from < endpoints_);
  TFR_REQUIRE(to >= 0 && to < endpoints_);
  return channel(from, to).slots.live_chunks();
}

std::size_t Network::lost_wakeups() const {
  std::size_t lost = 0;
  const auto size = static_cast<std::size_t>(endpoints_);
  for (std::size_t self = 0; self < size; ++self) {
    const Parked& parked = parked_[self];
    if (parked.pid < 0 || parked.signalled) continue;
    for (std::size_t from = 0; from < size; ++from) {
      const Channel& ch = *inbound_[self * size + from];
      // untimed-ok: audit view, outside simulated time
      if (ch.tail.peek() != ch.scanned) {
        ++lost;
        break;
      }
    }
  }
  return lost;
}

sim::Task<std::optional<Message>> Network::try_recv(sim::Env env, int self) {
  return receive(env, self, env.now(), 1);
}

sim::Task<Message> Network::recv(sim::Env env, int self) {
  const std::optional<Message> m =
      co_await receive(env, self, sim::kTimeNever, 0);
  co_return *m;
}

sim::Task<std::optional<Message>> Network::recv_until(sim::Env env, int self,
                                                      sim::Time deadline,
                                                      sim::Duration poll_every) {
  TFR_REQUIRE(poll_every >= 1);
  return receive(env, self, deadline, poll_every);
}

}  // namespace tfr::msg
