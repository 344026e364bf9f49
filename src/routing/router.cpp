#include "routing/router.h"

#include <algorithm>

#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

namespace cclique {

namespace {

using Payloads = std::vector<std::vector<Message>>;
using Transport = int (*)(CliqueUnicast&, Payloads, Payloads*);

void check_endpoints(const RoutedMessage& m, int n) {
  CC_REQUIRE(m.source >= 0 && m.source < n && m.dest >= 0 && m.dest < n,
             "message endpoints out of range");
}

/// The routers' one precondition check, run before any bit moves: every
/// endpoint lies in [0, n) and every payload fits the declared width.
void check_demand(const RoutingDemand& d, int n) {
  CC_REQUIRE(d.payload_bits >= 0 && d.payload_bits <= 64,
             "payload width must be in [0, 64]");
  for (const auto& m : d.messages) {
    check_endpoints(m, n);
    CC_REQUIRE(d.payload_bits == 64 || (m.payload >> d.payload_bits) == 0,
               "payload does not fit declared width");
  }
}

/// Max over players of the messages whose `end` endpoint is that player.
std::size_t max_count(const RoutingDemand& d, int n, int RoutedMessage::*end) {
  std::vector<std::size_t> count(static_cast<std::size_t>(n), 0);
  std::size_t most = 0;
  for (const auto& m : d.messages) {
    check_endpoints(m, n);
    most = std::max(most, ++count[static_cast<std::size_t>(m.*end)]);
  }
  return most;
}

/// Ships the demand as one positional record stream per (source,
/// destination) pair: that pair's payloads in demand order, each
/// max(payload_bits, 1) bits wide. The stream names both ends, so records
/// carry no address; a receiver decodes stream length / width records.
/// Self-messages are delivered locally.
RoutingResult route_records(CliqueUnicast& net, const RoutingDemand& demand,
                            Transport transport) {
  const int n = net.n();
  check_demand(demand, n);
  const int w = std::max(demand.payload_bits, 1);
  const std::size_t un = static_cast<std::size_t>(n);
  RoutingResult result;
  result.delivered.assign(un, {});
  Payloads streams(un, std::vector<Message>(un));
  for (const auto& m : demand.messages) {
    const std::size_t s = static_cast<std::size_t>(m.source);
    const std::size_t d = static_cast<std::size_t>(m.dest);
    if (s == d) {
      result.delivered[d].emplace_back(m.source, m.payload);
    } else {
      streams[s][d].push_uint(m.payload, w);
    }
  }
  Payloads received;
  result.rounds = transport(net, std::move(streams), &received);
  for (std::size_t j = 0; j < un; ++j) {
    for (std::size_t i = 0; i < un; ++i) {
      BitReader reader(received[j][i]);
      while (reader.remaining() > 0) {
        result.delivered[j].emplace_back(static_cast<int>(i), reader.read_uint(w));
      }
    }
  }
  return result;
}

}  // namespace

std::size_t RoutingDemand::max_out(int n) const {
  return max_count(*this, n, &RoutedMessage::source);
}

std::size_t RoutingDemand::max_in(int n) const {
  return max_count(*this, n, &RoutedMessage::dest);
}

RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand) {
  return route_records(net, demand, unicast_payloads);
}

RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand) {
  return route_records(net, demand, unicast_payloads_relayed);
}

RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng) {
  const int n = net.n();
  check_demand(demand, n);
  const int w = demand.payload_bits;
  const int addr = bits_for(static_cast<std::uint64_t>(n));
  CC_REQUIRE(w + addr <= 64, "valiant records (address | payload) must fit 64 bits");
  const std::uint64_t mask = (1ULL << w) - 1;  // w <= 63, since addr >= 1
  // Hop 1: every message travels to a uniform relay as (destination | payload).
  RoutingDemand hop;
  hop.payload_bits = addr + w;
  hop.messages.reserve(demand.messages.size());
  {
    // Randomized schedules are still oblivious: the draws depend on the rng
    // stream and n, never on payloads, so Rng is deliberately not a taint
    // source and this sink stays quiet.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("route_valiant relay draws"));
    for (const auto& m : demand.messages) {
      const int relay = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      hop.messages.push_back(
          RoutedMessage{m.source, relay, (static_cast<std::uint64_t>(m.dest) << w) | m.payload});
    }
  }
  const RoutingResult first = route_direct(net, hop);
  // Hop 2: every relay forwards (source | payload) to the destination.
  hop.messages.clear();
  for (int r = 0; r < n; ++r) {
    for (const auto& [source, record] : first.delivered[static_cast<std::size_t>(r)]) {
      hop.messages.push_back(RoutedMessage{r, static_cast<int>(record >> w),
                                           (static_cast<std::uint64_t>(source) << w) |
                                               (record & mask)});
    }
  }
  RoutingResult result = route_direct(net, hop);
  for (auto& inbox : result.delivered) {
    for (auto& [source, payload] : inbox) {
      source = static_cast<int>(payload >> w);
      payload &= mask;
    }
  }
  result.rounds += first.rounds;
  return result;
}

}  // namespace cclique
