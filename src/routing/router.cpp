#include "routing/router.h"

#include <algorithm>
#include <numeric>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

namespace cclique {

namespace {

std::vector<std::size_t> out_counts(const RoutingDemand& d, int n) {
  std::vector<std::size_t> c(static_cast<std::size_t>(n), 0);
  for (const auto& m : d.messages) {
    CC_REQUIRE(m.source >= 0 && m.source < n && m.dest >= 0 && m.dest < n,
               "message endpoints out of range");
    ++c[static_cast<std::size_t>(m.source)];
  }
  return c;
}

std::vector<std::size_t> in_counts(const RoutingDemand& d, int n) {
  std::vector<std::size_t> c(static_cast<std::size_t>(n), 0);
  for (const auto& m : d.messages) ++c[static_cast<std::size_t>(m.dest)];
  return c;
}

void check_payload_widths(const RoutingDemand& d) {
  CC_REQUIRE(d.payload_bits >= 0 && d.payload_bits <= 64,
             "payload width must be in [0, 64]");
  for (const auto& m : d.messages) {
    CC_REQUIRE(d.payload_bits == 64 || (m.payload >> d.payload_bits) == 0,
               "payload does not fit declared width");
  }
}

// Runs the relay plan: phase 1 ships [dest, payload] records to relays,
// phase 2 ships [source, payload] records to destinations. `relay_of[k]`
// gives message k's relay. Shared by the deterministic and randomized
// routers.
RoutingResult run_relay_plan(CliqueUnicast& net, const RoutingDemand& demand,
                             const std::vector<int>& relay_of) {
  const int n = net.n();
  const int addr = bits_for(static_cast<std::uint64_t>(n));
  const int w = demand.payload_bits;

  // Phase 1: source -> relay, record = [dest | payload].
  std::vector<std::vector<Message>> p1(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  // Self-relay records (relay == source) skip the wire. Every relay holds
  // ~M/n of the demand; reserving that up front keeps the hold lists from
  // reallocating while the chunk rounds run.
  locality::PerPlayer<std::vector<RoutedMessage>> held(
      n, CC_LOCALITY_SITE("relay's held records"));
  for (int r = 0; r < n; ++r) {
    held[r].reserve(demand.messages.size() / static_cast<std::size_t>(n) + 1);
  }
  for (std::size_t k = 0; k < demand.messages.size(); ++k) {
    const auto& m = demand.messages[k];
    const int r = relay_of[k];
    if (r == m.source) {
      held[r].push_back(m);
      continue;
    }
    Message& stream = p1[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(r)];
    stream.push_uint(static_cast<std::uint64_t>(m.dest), addr);
    stream.push_uint(m.payload, w);
  }
  std::vector<std::vector<Message>> recv1;
  int rounds = unicast_payloads(net, std::move(p1), &recv1);

  for (int r = 0; r < n; ++r) {
    for (int src = 0; src < n; ++src) {
      const Message& stream = recv1[static_cast<std::size_t>(r)][static_cast<std::size_t>(src)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        RoutedMessage m;
        m.source = src;
        m.dest = static_cast<int>(reader.read_uint(addr));
        m.payload = reader.read_uint(w);
        held[r].push_back(m);
      }
    }
  }

  // Phase 2: relay -> dest, record = [source | payload].
  std::vector<std::vector<Message>> p2(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  RoutingResult result;
  result.delivered.assign(static_cast<std::size_t>(n), {});
  for (int r = 0; r < n; ++r) {
    for (const auto& m : held[r]) {
      if (m.dest == r) {
        result.delivered[static_cast<std::size_t>(r)].emplace_back(m.source, m.payload);
        continue;
      }
      Message& stream = p2[static_cast<std::size_t>(r)][static_cast<std::size_t>(m.dest)];
      stream.push_uint(static_cast<std::uint64_t>(m.source), addr);
      stream.push_uint(m.payload, w);
    }
  }
  std::vector<std::vector<Message>> recv2;
  rounds += unicast_payloads(net, std::move(p2), &recv2);

  for (int j = 0; j < n; ++j) {
    for (int r = 0; r < n; ++r) {
      const Message& stream = recv2[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        const int src = static_cast<int>(reader.read_uint(addr));
        const std::uint64_t payload = reader.read_uint(w);
        result.delivered[static_cast<std::size_t>(j)].emplace_back(src, payload);
      }
    }
  }
  result.rounds = rounds;
  return result;
}

}  // namespace

std::size_t RoutingDemand::max_out(int n) const {
  auto c = out_counts(*this, n);
  return c.empty() ? 0 : *std::max_element(c.begin(), c.end());
}

std::size_t RoutingDemand::max_in(int n) const {
  auto c = in_counts(*this, n);
  return c.empty() ? 0 : *std::max_element(c.begin(), c.end());
}

RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand) {
  check_payload_widths(demand);
  const int n = net.n();
  const int w = demand.payload_bits;
  std::vector<std::vector<Message>> p(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  RoutingResult result;
  result.delivered.assign(static_cast<std::size_t>(n), {});
  for (const auto& m : demand.messages) {
    if (m.dest == m.source) {
      result.delivered[static_cast<std::size_t>(m.dest)].emplace_back(m.source, m.payload);
      continue;
    }
    p[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(m.dest)].push_uint(m.payload, w);
  }
  std::vector<std::vector<Message>> recv;
  result.rounds = unicast_payloads(net, std::move(p), &recv);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const Message& stream = recv[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        result.delivered[static_cast<std::size_t>(j)].emplace_back(i, reader.read_uint(w));
      }
    }
  }
  return result;
}

RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand) {
  check_payload_widths(demand);
  const int n = net.n();
  // Offline relay schedule over the whole demand pattern — which no single
  // player holds unless the pattern is public; no announcement runs (DESIGN.md
  // §4a). A fractional assignment sending d_ij/n of each (i,j) group to
  // every relay meets the per-(sender,relay) and per-(relay,dest) caps
  // ceil(M_i/n), ceil(m_j/n); flow integrality guarantees an integral
  // schedule exists. The greedy below places each message on the relay
  // minimizing its two incident edge loads: provably <= ceil(2M/n) per edge
  // (route_edge_records, core/mst.cpp), and no proof gives ceil(M/n).
  std::vector<int> relay_of(demand.messages.size(), 0);
  {
    // Schedule-computation sink: the relay assignment may read the demand
    // *pattern* (sources, destinations) but never the message payloads.
    // run_relay_plan below is the executor and is exempt.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("route_two_phase relay schedule"));
    std::vector<std::vector<std::uint32_t>> load_out(
        static_cast<std::size_t>(n), std::vector<std::uint32_t>(static_cast<std::size_t>(n), 0));
    std::vector<std::vector<std::uint32_t>> load_in(
        static_cast<std::size_t>(n), std::vector<std::uint32_t>(static_cast<std::size_t>(n), 0));

    // Deterministic processing order: sort message indices by (dest, source).
    std::vector<std::size_t> order(demand.messages.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto& ma = demand.messages[a];
      const auto& mb = demand.messages[b];
      if (ma.dest != mb.dest) return ma.dest < mb.dest;
      if (ma.source != mb.source) return ma.source < mb.source;
      return a < b;
    });

    for (std::size_t k : order) {
      const auto& m = demand.messages[k];
      int best = -1;
      std::uint32_t best_max = 0, best_sum = 0;
      for (int r = 0; r < n; ++r) {
        const std::uint32_t lo = load_out[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(r)];
        const std::uint32_t li = load_in[static_cast<std::size_t>(r)][static_cast<std::size_t>(m.dest)];
        const std::uint32_t mx = std::max(lo, li);
        const std::uint32_t sum = lo + li;
        if (best < 0 || mx < best_max || (mx == best_max && sum < best_sum)) {
          best = r;
          best_max = mx;
          best_sum = sum;
        }
      }
      relay_of[k] = best;
      ++load_out[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(best)];
      ++load_in[static_cast<std::size_t>(best)][static_cast<std::size_t>(m.dest)];
    }
  }
  return run_relay_plan(net, demand, relay_of);
}

RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng) {
  check_payload_widths(demand);
  const int n = net.n();
  std::vector<int> relay_of(demand.messages.size());
  {
    // Randomized schedules are still oblivious: the draws depend on the rng
    // stream and n, never on payloads, so Rng is deliberately not a taint
    // source and this sink stays quiet.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("route_valiant relay draws"));
    for (auto& r : relay_of) r = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
  }
  return run_relay_plan(net, demand, relay_of);
}

}  // namespace cclique
