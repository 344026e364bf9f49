#include "comm/clique_unicast.h"

#include <algorithm>
#include <utility>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

namespace cclique {

CliqueUnicast::CliqueUnicast(int n, int bandwidth) : core_(n, bandwidth) {}

void CliqueUnicast::round_fill(const FillFn& fill, const RecvFn& recv) {
  const std::size_t nn = static_cast<std::size_t>(n());
  const std::size_t b = static_cast<std::size_t>(bandwidth());
  if (len_.empty()) {
    slots_.resize(nn * nn);
    inbox_.resize(nn);
    len_.assign(nn, std::vector<std::size_t>(nn, 0));
  }
  // Fill and check every outbox before any delivery: a synchronous round
  // means sends are based on pre-round state only (see comm/engine.h for
  // the round contract).
  for (std::size_t i = 0; i < nn; ++i) {
    locality::PlayerScope scope(static_cast<int>(i));
    // The callback's outputs become this round's message lengths, so the
    // whole callback is a length sink: payloads must be pre-serialized
    // (comm/model.h), never read here.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-UCAST fill callback"));
    Message* box = &slots_[i * nn];
    for (std::size_t j = 0; j < nn; ++j) box[j].clear();
    fill(static_cast<int>(i), box);
    for (std::size_t j = 0; j < nn; ++j) {
      if (j == i) {
        CC_MODEL(box[j].empty(), "players cannot message themselves");
      } else {
        CC_MODEL(box[j].size_bits() <= b, "per-edge bandwidth exceeded in CLIQUE-UCAST");
      }
      len_[i][j] = box[j].size_bits();
    }
  }
  core_.charge_stream(len_, 1);
  // Delivery in player order: receiver r's column of the outbox matrix is
  // swapped into the inbox for its callback and back.
  for (std::size_t r = 0; r < nn; ++r) {
    for (std::size_t j = 0; j < nn; ++j) std::swap(inbox_[j], slots_[j * nn + r]);
    locality::PlayerScope scope(static_cast<int>(r));
    recv(static_cast<int>(r), inbox_);
    for (std::size_t j = 0; j < nn; ++j) std::swap(inbox_[j], slots_[j * nn + r]);
  }
}

namespace {

using Payloads = std::vector<std::vector<Message>>;

/// The stream lengths of an n x n payload matrix (CC_REQUIRE: n x n).
LengthMatrix lengths_of(const Payloads& payload, std::size_t n) {
  CC_REQUIRE(payload.size() == n, "payload matrix must be n x n");
  LengthMatrix len(n);
  for (std::size_t v = 0; v < n; ++v) {
    CC_REQUIRE(payload[v].size() == n, "payload matrix must be n x n");
    for (const Message& msg : payload[v]) len[v].push_back(msg.size_bits());
  }
  return len;
}

/// The one hand-over of both unicast transports: payload[v][p] moves to
/// received[p][v].
void hand_over(Payloads& payload, Payloads* received) {
  const std::size_t n = payload.size();
  received->assign(n, std::vector<Message>(n));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t p = 0; p < n; ++p) (*received)[p][v] = std::move(payload[v][p]);
  }
}

}  // namespace

int unicast_payloads(CliqueUnicast& net, Payloads payload, Payloads* received) {
  // Stream-length sink: rounds and charges derive from Message *sizes*
  // (already-committed lengths), never from payload values.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads stream lengths"));
  CC_REQUIRE(received != nullptr, "received matrix required");
  const LengthMatrix len = lengths_of(payload, static_cast<std::size_t>(net.n()));
  std::size_t longest = 0;
  for (const std::vector<std::size_t>& row : len) {
    longest = std::max(longest, *std::max_element(row.begin(), row.end()));
  }
  const int rounds =
      static_cast<int>(ceil_div(longest, static_cast<std::uint64_t>(net.bandwidth())));
  net.core_.charge_stream(len, rounds);  // rejects self-payloads
  hand_over(payload, received);
  return rounds;
}

std::vector<Message> all_gather(CliqueUnicast& net, int width, const GatherFillFn& fill) {
  const int n = net.n();
  CC_REQUIRE(width >= 0, "all-gather width must be non-negative");
  // Every message is written before any bit moves, each inside its
  // player's scopes — the same contract as an engine fill callback.
  std::vector<Message> sent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    locality::PlayerScope scope(i);
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("all_gather fill callback"));
    Message& msg = sent[static_cast<std::size_t>(i)];
    fill(i, msg);
    CC_MODEL(msg.size_bits() <= static_cast<std::size_t>(width),
             "all-gather message exceeds its declared width");
  }
  // Every message streams to the n-1 others in ceil(width / b) rounds
  // whatever the messages hold, so the round count is a function of the
  // declared width alone (none on a 1-clique).
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("all_gather stream lengths"));
  LengthMatrix len(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    len[i].assign(sent.size(), sent[i].size_bits());
    len[i][i] = 0;
  }
  net.core_.charge_stream(len, all_gather_cost(n, width, net.bandwidth()).rounds);
  return sent;
}

AllGatherCost all_gather_cost(int n, int width, int bandwidth) {
  CC_REQUIRE(n >= 1 && width >= 0 && bandwidth >= 1, "all-gather parameters out of range");
  if (n < 2) return {};
  const std::uint64_t w = static_cast<std::uint64_t>(width);
  AllGatherCost cost;
  cost.rounds = static_cast<int>((w + static_cast<std::uint64_t>(bandwidth) - 1) /
                                 static_cast<std::uint64_t>(bandwidth));
  cost.sender_bits = static_cast<std::uint64_t>(n - 1) * w;
  cost.bits = static_cast<std::uint64_t>(n) * cost.sender_bits;
  return cost;
}

namespace {

/// The relay's two hops, from one walk of for_each_relay_chunk:
/// load[0][v*n + t] bits travel v -> t and load[1][t*n + p] bits travel
/// t -> p (a relay's own chunks stay put), hop h in ceil(max load / b)
/// rounds. relay_cost prices these tables and the executor charges them.
struct RelayHops {
  std::vector<std::uint64_t> load[2];
  int rounds[2] = {0, 0};
  std::uint64_t bits = 0;
};

RelayHops relay_hops(const LengthMatrix& len, int bandwidth) {
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const std::size_t n = len.size();
  RelayHops hops;
  std::uint64_t peak[2] = {0, 0};
  for (std::vector<std::uint64_t>& load : hops.load) load.assign(n * n, 0);
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t,
                                std::size_t clen) {
    if (t != v) peak[0] = std::max(peak[0], hops.load[0][v * n + t] += clen);
    if (t != p) peak[1] = std::max(peak[1], hops.load[1][t * n + p] += clen);
    hops.bits += (t != v ? clen : 0) + (t != p ? clen : 0);
  });
  for (int h : {0, 1}) {
    hops.rounds[h] = static_cast<int>(ceil_div(peak[h], static_cast<std::uint64_t>(bandwidth)));
  }
  return hops;
}

}  // namespace

RelayCost relay_cost(const LengthMatrix& len, int bandwidth) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("relay_cost"));
  const RelayHops hops = relay_hops(len, bandwidth);
  return {hops.rounds[0] + hops.rounds[1], hops.bits};
}

int unicast_payloads_relayed(CliqueUnicast& net, Payloads payload, Payloads* received) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads_relayed stream lengths"));
  CC_REQUIRE(received != nullptr, "received matrix required");
  const std::size_t n = static_cast<std::size_t>(net.n());
  const RelayHops hops = relay_hops(lengths_of(payload, n), net.bandwidth());
  LengthMatrix stream(n);  // each hop is one stream of its per-edge loads
  for (int h : {0, 1}) {
    for (std::size_t v = 0; v < n; ++v) {
      stream[v].assign(hops.load[h].data() + v * n, hops.load[h].data() + (v + 1) * n);
    }
    net.core_.charge_stream(stream, hops.rounds[h]);
  }
  hand_over(payload, received);
  return hops.rounds[0] + hops.rounds[1];
}

}  // namespace cclique
