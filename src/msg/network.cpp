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
  inbound_.resize(size * size);
  for (int to = 0; to < endpoints; ++to) {
    for (int from = 0; from < endpoints; ++from) {
      inbound_[static_cast<std::size_t>(to) * size +
               static_cast<std::size_t>(from)]
          .channel = &channel(from, to);
    }
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
  const int slot = ch.sender_next++;
  if (adversary_ != nullptr) {
    // The verdict is decided at send time; the sender still pays the full
    // send cost (the network, not the sender, loses the message), and the
    // tail still advances so per-channel sequence numbers stay dense.
    const Delivery verdict = adversary_->on_send(
        env, self, to, static_cast<std::uint64_t>(slot));
    ch.meta.resize(static_cast<std::size_t>(slot) + 1);
    ch.meta[static_cast<std::size_t>(slot)] =
        SlotMeta{env.now() + verdict.extra_delay,
                 verdict.dropped ? 0 : verdict.copies};
  }
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
      Inbound& in = inbound_[row + static_cast<std::size_t>(from)];
      Channel& ch = *in.channel;
      if (++from == endpoints_) from = 0;  // next sender, and the next start
      // Reliable fast path: nothing pending from the unreliable machinery
      // and no adversary attached — identical to the original SPSC consume.
      if (adversary_ == nullptr && in.ready.empty() &&
          in.scanned == in.consumed) {
        const int tail = co_await env.read(ch.tail);
        if (tail > in.consumed) {
          const Message m = co_await env.read(
              ch.slots.at(static_cast<std::size_t>(in.consumed)));
          ++in.consumed;
          in.scanned = in.consumed;
          start = from;
          co_return m;
        }
        continue;
      }
      // Unreliable path: classify newly published slots, then deliver the
      // pending copy with the earliest delivery instant that has arrived.
      const int tail = co_await env.read(ch.tail);
      while (in.scanned < tail) {
        const int slot = in.scanned++;
        SlotMeta meta{};  // senders without a verdict deliver immediately
        if (static_cast<std::size_t>(slot) < ch.meta.size())
          meta = ch.meta[static_cast<std::size_t>(slot)];
        if (meta.copies > 0)
          in.ready.push_back({slot, meta.deliver_at, meta.copies});
      }
      const sim::Time now = env.now();
      std::size_t best = in.ready.size();
      for (std::size_t r = 0; r < in.ready.size(); ++r) {
        const Inbound::Held& h = in.ready[r];
        if (h.deliver_at > now) continue;
        if (best == in.ready.size() ||
            h.deliver_at < in.ready[best].deliver_at ||
            (h.deliver_at == in.ready[best].deliver_at &&
             h.slot < in.ready[best].slot)) {
          best = r;
        }
      }
      if (best != in.ready.size()) {
        const int slot = in.ready[best].slot;
        const Message m =
            co_await env.read(ch.slots.at(static_cast<std::size_t>(slot)));
        if (--in.ready[best].copies == 0)
          in.ready.erase(in.ready.begin() + static_cast<std::ptrdiff_t>(best));
        in.consumed = in.scanned;  // keep the fast-path cursor consistent
        start = from;
        co_return m;
      }
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
      const Inbound& in = inbound_[row + static_cast<std::size_t>(from)];
      // untimed-ok: the park's atomic re-check, like a futex's compare
      if (in.channel->tail.peek() != in.scanned) {
        moved = from;
        break;
      }
      for (const Inbound::Held& h : in.ready) {
        if (h.deliver_at < held_at) {
          held_at = h.deliver_at;
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

std::size_t Network::lost_wakeups() const {
  std::size_t lost = 0;
  const auto size = static_cast<std::size_t>(endpoints_);
  for (std::size_t self = 0; self < size; ++self) {
    const Parked& parked = parked_[self];
    if (parked.pid < 0 || parked.signalled) continue;
    for (std::size_t from = 0; from < size; ++from) {
      const Inbound& in = inbound_[self * size + from];
      // untimed-ok: audit view, outside simulated time
      if (in.channel->tail.peek() != in.scanned) {
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
