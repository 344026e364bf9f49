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

RelaySchedule relay_cost(LengthMatrix len, int bandwidth) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("relay_cost"));
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const std::size_t n = len.size();
  RelaySchedule schedule;
  std::uint64_t peak[2] = {0, 0};
  for (LengthMatrix& load : schedule.hop_load) load.assign(n, std::vector<std::size_t>(n, 0));
  LengthMatrix& out = schedule.hop_load[0];
  LengthMatrix& in = schedule.hop_load[1];
  for_each_relay_chunk(len, [&](std::size_t v, std::size_t p, std::size_t t, std::size_t,
                                std::size_t clen) {
    if (t != v) peak[0] = std::max<std::uint64_t>(peak[0], out[v][t] += clen);
    if (t != p) peak[1] = std::max<std::uint64_t>(peak[1], in[t][p] += clen);
    schedule.bits += (t != v ? clen : 0) + (t != p ? clen : 0);
  });
  for (int h : {0, 1}) {
    schedule.hop_rounds[h] =
        static_cast<int>(ceil_div(peak[h], static_cast<std::uint64_t>(bandwidth)));
  }
  schedule.bandwidth = bandwidth;
  schedule.len = std::move(len);
  return schedule;
}

int unicast_payloads_relayed(CliqueUnicast& net, Payloads payload, Payloads* received,
                             const RelaySchedule& schedule) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads_relayed stream lengths"));
  CC_REQUIRE(received != nullptr, "received matrix required");
  const std::size_t n = static_cast<std::size_t>(net.n());
  CC_REQUIRE(schedule.len.size() == n && schedule.bandwidth == net.bandwidth(),
             "relay schedule priced for another engine");
  // The length check is the run's certificate: payloads of exactly the
  // priced lengths walk into exactly the kept hop tables.
  CC_REQUIRE(payload.size() == n, "payload matrix must be n x n");
  for (std::size_t v = 0; v < n; ++v) {
    CC_REQUIRE(payload[v].size() == n, "payload matrix must be n x n");
    for (std::size_t p = 0; p < n; ++p) {
      CC_REQUIRE(payload[v][p].size_bits() == schedule.len[v][p],
                 "payload length differs from its relay schedule");
    }
  }
  for (int h : {0, 1}) net.core_.charge_stream(schedule.hop_load[h], schedule.hop_rounds[h]);
  hand_over(payload, received);
  return schedule.rounds();
}

int unicast_payloads_relayed(CliqueUnicast& net, Payloads payload, Payloads* received) {
  const std::size_t n = static_cast<std::size_t>(net.n());
  const RelaySchedule schedule = relay_cost(lengths_of(payload, n), net.bandwidth());
  return unicast_payloads_relayed(net, std::move(payload), received, schedule);
}

}  // namespace cclique
