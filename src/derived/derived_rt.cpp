#include "tfr/derived/derived_rt.hpp"

#include "tfr/common/contracts.hpp"

namespace tfr::rt {

namespace {
constexpr int kPidBits = 24;
}  // namespace

RtMultiConsensus::RtMultiConsensus(Config config)
    : config_(config),
      binary_({.delta = config.delta}, static_cast<std::size_t>(config.bits)),
      witness0_(-1),
      witness1_(-1) {
  TFR_REQUIRE(config.bits >= 1 && config.bits <= 62);
}

std::int64_t RtMultiConsensus::propose(std::int64_t value) {
  TFR_REQUIRE(value >= 0);
  TFR_REQUIRE(config_.bits >= 62 ||
              value < (std::int64_t{1} << config_.bits));
  std::int64_t candidate = value;
  for (int k = 0; k < config_.bits; ++k) {
    const int b = static_cast<int>((candidate >> k) & 1);
    (b == 0 ? witness0_ : witness1_)
        .at(static_cast<std::size_t>(k))
        .write(candidate);
    const int decided = binary_.propose(static_cast<std::size_t>(k), b).value;
    if (decided != b) {
      const std::int64_t adopted = (decided == 0 ? witness0_ : witness1_)
                                       .at(static_cast<std::size_t>(k))
                                       .read();
      TFR_INVARIANT(adopted >= 0);
      TFR_INVARIANT(((adopted ^ candidate) & ((std::int64_t{1} << k) - 1)) ==
                    0);
      TFR_INVARIANT(((adopted >> k) & 1) == decided);
      candidate = adopted;
    }
  }
  return candidate;
}

std::int64_t RtMultiConsensus::decided() const {
  std::int64_t value = 0;
  for (int k = 0; k < config_.bits; ++k) {
    const int d = binary_.decided(static_cast<std::size_t>(k));
    if (d == -1) return -1;
    value |= std::int64_t{d} << k;
  }
  return value;
}

RtElection::RtElection(Nanos delta)
    : agreement_({.delta = delta, .bits = kPidBits}) {}

int RtElection::elect(int id) {
  TFR_REQUIRE(id >= 0);
  return static_cast<int>(agreement_.propose(static_cast<std::int64_t>(id)));
}

int RtElection::leader() const {
  const std::int64_t v = agreement_.decided();
  return v < 0 ? -1 : static_cast<int>(v);
}

RtTestAndSet::RtTestAndSet(Nanos delta) : election_(delta) {}

int RtTestAndSet::test_and_set(int id) {
  return election_.elect(id) == id ? 0 : 1;
}

RtRenaming::RtRenaming(Nanos delta, int max_names) : max_names_(max_names) {
  TFR_REQUIRE(max_names >= 1);
  slots_.reserve(static_cast<std::size_t>(max_names));
  for (int k = 0; k < max_names; ++k)
    slots_.push_back(std::make_unique<RtMultiConsensus>(
        RtMultiConsensus::Config{.delta = delta, .bits = kPidBits}));
}

int RtRenaming::acquire(int id) {
  TFR_REQUIRE(id >= 0);
  for (int k = 0; k < max_names_; ++k) {
    const std::int64_t winner =
        slots_[static_cast<std::size_t>(k)]->propose(id);
    if (winner == id) return k;
  }
  TFR_REQUIRE(!"renaming namespace exhausted: more participants than names");
  return -1;
}

RtSetConsensus::RtSetConsensus(Nanos delta, int k, int bits) : k_(k) {
  TFR_REQUIRE(k >= 1);
  groups_.reserve(static_cast<std::size_t>(k));
  for (int g = 0; g < k; ++g)
    groups_.push_back(std::make_unique<RtMultiConsensus>(
        RtMultiConsensus::Config{.delta = delta, .bits = bits}));
}

std::int64_t RtSetConsensus::propose(int id, std::int64_t value) {
  TFR_REQUIRE(id >= 0);
  return groups_[static_cast<std::size_t>(id % k_)]->propose(value);
}

RtLongLivedTestAndSet::RtLongLivedTestAndSet(Nanos delta, int n)
    : delta_(delta), n_(n), won_generation_(static_cast<std::size_t>(n), -1) {
  TFR_REQUIRE(n >= 1);
}

RtElection& RtLongLivedTestAndSet::election(std::size_t generation) {
  return elections_.get(
      generation, [this] { return std::make_unique<RtElection>(delta_); });
}

int RtLongLivedTestAndSet::test_and_set(int id) {
  TFR_REQUIRE(id >= 0 && id < n_);
  const int g = generation_.read();
  TFR_INVARIANT(g >= 0);
  const int winner = election(static_cast<std::size_t>(g)).elect(id);
  if (winner != id) return 1;
  // Winning generation g implies g is still current: only its unique
  // winner can advance the generation register, and that is us.
  won_generation_[static_cast<std::size_t>(id)] = g;
  return 0;
}

void RtLongLivedTestAndSet::reset(int id) {
  TFR_REQUIRE(id >= 0 && id < n_);
  const int g = generation_.read();
  TFR_REQUIRE(won_generation_[static_cast<std::size_t>(id)] == g);
  generation_.write(g + 1);
}

RtUniversal::RtUniversal(
    Nanos delta, int n,
    std::function<std::unique_ptr<derived::Replica>()> make_replica)
    : delta_(delta),
      n_(n),
      make_replica_(std::move(make_replica)),
      announce_(std::make_unique<AtomicRegister<std::int64_t>[]>(
          static_cast<std::size_t>(n))) {
  TFR_REQUIRE(n >= 1 && n < (1 << 14));
  TFR_REQUIRE(make_replica_ != nullptr);
  for (int i = 0; i < n; ++i)
    announce_[static_cast<std::size_t>(i)].write(-1);
  per_process_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto pp = std::make_unique<PerProcess>();
    pp->replica = make_replica_();
    pp->applied_seq.assign(static_cast<std::size_t>(n), 0);
    per_process_.push_back(std::move(pp));
  }
}

RtMultiConsensus& RtUniversal::slot(std::size_t index) {
  return slots_.get(index, [this] {
    return std::make_unique<RtMultiConsensus>(RtMultiConsensus::Config{
        .delta = delta_, .bits = derived::OpCodec::kBits});
  });
}

std::int64_t RtUniversal::invoke(int id, int opcode, int arg) {
  TFR_REQUIRE(id >= 0 && id < n_);
  PerProcess& mine = *per_process_[static_cast<std::size_t>(id)];
  const std::int64_t op =
      derived::OpCodec::encode(id, mine.next_seq++, opcode, arg);

  announce_[static_cast<std::size_t>(id)].write(op);

  std::int64_t my_result = -1;
  bool applied_mine = false;
  while (!applied_mine) {
    const std::size_t index = mine.applied_slots;
    const int beneficiary =
        static_cast<int>(index % static_cast<std::size_t>(n_));
    std::int64_t proposal = op;
    if (beneficiary != id) {
      const std::int64_t announced =
          announce_[static_cast<std::size_t>(beneficiary)].read();
      if (announced >= 0 &&
          derived::OpCodec::seq(announced) >
              mine.applied_seq[static_cast<std::size_t>(beneficiary)]) {
        proposal = announced;
      }
    }
    const std::int64_t winner = slot(index).propose(proposal);
    const std::int64_t result = mine.replica->apply(winner);
    const int winner_pid = derived::OpCodec::pid(winner);
    TFR_INVARIANT(winner_pid >= 0 && winner_pid < n_);
    TFR_INVARIANT(derived::OpCodec::seq(winner) >
                  mine.applied_seq[static_cast<std::size_t>(winner_pid)]);
    mine.applied_seq[static_cast<std::size_t>(winner_pid)] =
        derived::OpCodec::seq(winner);
    mine.applied_slots = index + 1;
    if (winner == op) {
      my_result = result;
      applied_mine = true;
    }
  }
  announce_[static_cast<std::size_t>(id)].write(-1);
  return my_result;
}

std::size_t RtUniversal::log_length() const {
  std::size_t longest = 0;
  for (const auto& pp : per_process_)
    if (pp && pp->applied_slots > longest) longest = pp->applied_slots;
  return longest;
}

}  // namespace tfr::rt
