#include "core/circuit_sim.h"

#include <algorithm>

#include "routing/router.h"
#include "util/math_util.h"

namespace cclique {

CircuitSimulation::CircuitSimulation(const Circuit& circuit, int n_players,
                                     AssignPolicy policy)
    : circuit_(&circuit) {
  CC_REQUIRE(n_players >= 2, "need at least two players");
  const std::size_t n = static_cast<std::size_t>(n_players);
  const std::size_t wires = circuit.num_wires();
  plan_.n_players = n_players;
  plan_.s = static_cast<int>(std::max<std::size_t>(1, ceil_div(wires, n * n)));

  // Gate weights w(G) = |in(G)| + |out(G)|.
  const std::vector<int> fan_out = circuit.fan_outs();
  const int gates = circuit.num_gates();
  std::vector<std::size_t> weight(static_cast<std::size_t>(gates));
  for (int g = 0; g < gates; ++g) {
    weight[static_cast<std::size_t>(g)] =
        circuit.gate(g).inputs.size() + static_cast<std::size_t>(fan_out[static_cast<std::size_t>(g)]);
    plan_.gate_b = std::max(plan_.gate_b, circuit.separability_bits(g));
  }

  // Heavy gates (w >= 2ns) each get their own player; with total weight
  // 2N <= 2n^2 s there are at most n of them.
  plan_.heavy_threshold = 2 * n * static_cast<std::size_t>(plan_.s);
  plan_.owner.assign(static_cast<std::size_t>(gates), -1);
  int next_heavy_player = 0;
  for (int g = 0; g < gates; ++g) {
    if (weight[static_cast<std::size_t>(g)] >= plan_.heavy_threshold) {
      CC_CHECK(next_heavy_player < n_players,
               "more heavy gates than players — weight accounting broken");
      plan_.owner[static_cast<std::size_t>(g)] = next_heavy_player++;
      ++plan_.heavy_gates;
    }
  }

  // Light gates: greedy first-fit against the 4ns cap (existence argument in
  // the paper: a light gate always fits somewhere).
  const std::size_t cap = 2 * plan_.heavy_threshold;  // 4ns
  std::vector<std::size_t> light_load(n, 0);
  int cursor = 0;
  for (int g = 0; g < gates; ++g) {
    if (plan_.owner[static_cast<std::size_t>(g)] >= 0) continue;
    const std::size_t w = weight[static_cast<std::size_t>(g)];
    int placed = -1;
    for (int probe = 0; probe < n_players; ++probe) {
      const int p = (cursor + probe) % n_players;
      if (light_load[static_cast<std::size_t>(p)] + w <= cap) {
        placed = p;
        break;
      }
    }
    CC_CHECK(placed >= 0, "no player can host a light gate — cap accounting broken");
    plan_.owner[static_cast<std::size_t>(g)] = placed;
    light_load[static_cast<std::size_t>(placed)] += w;
    plan_.max_light_weight = std::max(plan_.max_light_weight, light_load[static_cast<std::size_t>(placed)]);
    if (policy == AssignPolicy::kRotating) cursor = (placed + 1) % n_players;
    // kFirstFit keeps the cursor at 0 between gates — the paper's literal
    // packing, which concentrates consecutive gates on one player.
    if (policy == AssignPolicy::kFirstFit) cursor = 0;
  }

  const int record_bits = bits_for(static_cast<std::uint64_t>(std::max(1, gates))) + 1;
  const int input_record_bits =
      bits_for(static_cast<std::uint64_t>(std::max(1, circuit.num_inputs()))) + 1;
  plan_.recommended_bandwidth =
      std::max({plan_.gate_b, record_bits, input_record_bits, 1});
}

CircuitSimResult CircuitSimulation::run(CliqueUnicast& net,
                                        const std::vector<bool>& inputs,
                                        const std::vector<int>& input_owner,
                                        SimRouter router, Rng* valiant_rng) const {
  CC_REQUIRE(router != SimRouter::kValiant || valiant_rng != nullptr,
             "the valiant router needs an Rng");
  auto route = [&](CliqueUnicast& engine, const RoutingDemand& demand) {
    switch (router) {
      case SimRouter::kDirect:
        return route_direct(engine, demand);
      case SimRouter::kValiant:
        return route_valiant(engine, demand, *valiant_rng);
      case SimRouter::kTwoPhase:
        break;
    }
    return route_two_phase(engine, demand);
  };
  const Circuit& c = *circuit_;
  const int n = plan_.n_players;
  CC_REQUIRE(net.n() == n, "engine size mismatch");
  CC_REQUIRE(static_cast<int>(inputs.size()) == c.num_inputs(), "input count mismatch");
  CC_REQUIRE(input_owner.size() == inputs.size(), "one owner per input");

  const int gates = c.num_gates();
  const int gate_addr = bits_for(static_cast<std::uint64_t>(std::max(1, gates)));
  const int input_addr = bits_for(static_cast<std::uint64_t>(std::max(1, c.num_inputs())));

  // Per-player knowledge of gate values: know[p][gate] -> value.
  std::vector<std::unordered_map<int, bool>> know(static_cast<std::size_t>(n));
  auto knows = [&](int p, int g) {
    return know[static_cast<std::size_t>(p)].count(g) != 0;
  };
  auto value_at = [&](int p, int g) -> bool {
    auto it = know[static_cast<std::size_t>(p)].find(g);
    CC_CHECK(it != know[static_cast<std::size_t>(p)].end(),
             "player missing a value the schedule says it has");
    return it->second;
  };

  // Constants are common knowledge; seed them everywhere they're owned or
  // consumed (free: the circuit itself is common knowledge).
  for (int g = 0; g < gates; ++g) {
    if (c.gate(g).kind == GateKind::kConst) {
      for (int p = 0; p < n; ++p) know[static_cast<std::size_t>(p)][g] = c.gate(g).const_value;
    }
  }

  // Stage 0: route input values from their holders to their assigned owners
  // (the paper's final remark in the proof: Lenzen routing on the
  // roughly-balanced input partition). Record = [input index | value].
  {
    RoutingDemand demand;
    demand.payload_bits = input_addr + 1;
    for (int i = 0; i < c.num_inputs(); ++i) {
      const int gate_id = c.input_ids()[static_cast<std::size_t>(i)];
      const int from = input_owner[static_cast<std::size_t>(i)];
      const int to = plan_.owner[static_cast<std::size_t>(gate_id)];
      CC_REQUIRE(from >= 0 && from < n, "input owner out of range");
      const std::uint64_t payload =
          (static_cast<std::uint64_t>(i) << 1) | (inputs[static_cast<std::size_t>(i)] ? 1 : 0);
      if (from == to) {
        know[static_cast<std::size_t>(to)][gate_id] = inputs[static_cast<std::size_t>(i)];
      } else {
        demand.messages.push_back(RoutedMessage{from, to, payload});
      }
    }
    RoutingResult routed = route(net, demand);
    for (int p = 0; p < n; ++p) {
      for (const auto& [src, payload] : routed.delivered[static_cast<std::size_t>(p)]) {
        (void)src;
        const int idx = static_cast<int>(payload >> 1);
        const int gate_id = c.input_ids()[static_cast<std::size_t>(idx)];
        know[static_cast<std::size_t>(p)][gate_id] = (payload & 1) != 0;
      }
    }
  }

  // Precompute consumers of each gate, and layers.
  const auto layers = c.layers();
  // Heavy-output forwarding dedup: forwarded[gate] marks players already
  // holding that heavy gate's value.
  std::unordered_map<int, std::vector<bool>> forwarded;

  const std::vector<int> fan_out = c.fan_outs();
  std::vector<bool> heavy(static_cast<std::size_t>(gates), false);
  for (int g = 0; g < gates; ++g) {
    heavy[static_cast<std::size_t>(g)] =
        c.gate(g).inputs.size() + static_cast<std::size_t>(fan_out[static_cast<std::size_t>(g)]) >=
        plan_.heavy_threshold;
  }

  for (std::size_t layer = 1; layer < layers.size(); ++layer) {
    // ---- Phase (a): heavy-gate aggregation -------------------------------
    // For each heavy gate in this layer, each player owning some of its
    // in-wires sends the Definition 1 partial aggregate to the gate owner.
    // A player owns at most one heavy gate, so aggregates on an edge are
    // unambiguous without addressing.
    {
      std::vector<std::vector<Message>> payload(
          static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
      // (gate, sender) -> (positions, values) accumulated locally.
      struct Part {
        std::vector<int> positions;
        std::vector<bool> values;
      };
      std::vector<std::unordered_map<int, Part>> parts(static_cast<std::size_t>(n));
      bool any_heavy = false;
      for (int g : layers[layer]) {
        if (!heavy[static_cast<std::size_t>(g)]) continue;
        any_heavy = true;
        const Gate& gate = c.gate(g);
        for (std::size_t pos = 0; pos < gate.inputs.size(); ++pos) {
          const int src = gate.inputs[pos];
          const int p = plan_.owner[static_cast<std::size_t>(src)];
          Part& part = parts[static_cast<std::size_t>(p)][g];
          part.positions.push_back(static_cast<int>(pos));
          part.values.push_back(value_at(p, src));
        }
      }
      if (any_heavy) {
        // Serialize: each sender has at most one aggregate per heavy gate;
        // heavy gates have distinct owners, so at most one aggregate per
        // (sender, receiver) edge per layer.
        std::vector<std::unordered_map<int, PartAggregate>> owner_parts(
            static_cast<std::size_t>(n));  // receiver -> (gate -> aggregate), local sides
        for (int p = 0; p < n; ++p) {
          for (auto& [g, part] : parts[static_cast<std::size_t>(p)]) {
            const PartAggregate agg = c.partial_aggregate(g, part.positions, part.values);
            const int dest = plan_.owner[static_cast<std::size_t>(g)];
            if (dest == p) {
              owner_parts[static_cast<std::size_t>(dest)][g] = agg;  // no wire needed
              continue;
            }
            Message m;
            m.push_uint(agg.value, agg.bits);
            CC_CHECK(payload[static_cast<std::size_t>(p)][static_cast<std::size_t>(dest)].empty(),
                     "two heavy aggregates on one edge in one layer");
            payload[static_cast<std::size_t>(p)][static_cast<std::size_t>(dest)] = std::move(m);
          }
        }
        std::vector<std::vector<Message>> received;
        unicast_payloads(net, std::move(payload), &received);
        // Combine at owners.
        for (int g : layers[layer]) {
          if (!heavy[static_cast<std::size_t>(g)]) continue;
          const int dest = plan_.owner[static_cast<std::size_t>(g)];
          std::vector<PartAggregate> collected;
          auto own_it = owner_parts[static_cast<std::size_t>(dest)].find(g);
          if (own_it != owner_parts[static_cast<std::size_t>(dest)].end()) {
            collected.push_back(own_it->second);
          }
          const int agg_bits = c.separability_bits(g);
          for (int p = 0; p < n; ++p) {
            const Message& m = received[static_cast<std::size_t>(dest)][static_cast<std::size_t>(p)];
            if (m.empty()) continue;
            // Only aggregates for this gate arrive at its owner this layer.
            PartAggregate agg;
            agg.bits = agg_bits;
            agg.value = m.read_uint(0, agg_bits);
            collected.push_back(agg);
          }
          know[static_cast<std::size_t>(dest)][g] = c.combine(g, collected);
        }
      }
    }

    // ---- Phase (b): heavy outputs feeding this layer's light gates -------
    {
      std::vector<std::vector<Message>> payload(
          static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
      bool any = false;
      for (int g : layers[layer]) {
        if (heavy[static_cast<std::size_t>(g)]) continue;
        const int consumer = plan_.owner[static_cast<std::size_t>(g)];
        for (int src : c.gate(g).inputs) {
          if (!heavy[static_cast<std::size_t>(src)]) continue;
          if (c.gate(src).kind == GateKind::kConst) continue;
          const int holder = plan_.owner[static_cast<std::size_t>(src)];
          if (holder == consumer) continue;
          auto& sent = forwarded[src];
          if (sent.empty()) sent.assign(static_cast<std::size_t>(n), false);
          if (sent[static_cast<std::size_t>(consumer)]) continue;
          sent[static_cast<std::size_t>(consumer)] = true;
          // One bit per (heavy gate, consumer); a holder owns one heavy
          // gate, so the edge carries at most one forwarded bit per layer.
          Message& m = payload[static_cast<std::size_t>(holder)][static_cast<std::size_t>(consumer)];
          CC_CHECK(m.empty(), "duplicate heavy forward on an edge in one layer");
          m.push_bit(value_at(holder, src));
          any = true;
        }
      }
      if (any) {
        std::vector<std::vector<Message>> received;
        unicast_payloads(net, std::move(payload), &received);
        for (int g : layers[layer]) {
          if (heavy[static_cast<std::size_t>(g)]) continue;
          const int consumer = plan_.owner[static_cast<std::size_t>(g)];
          for (int src : c.gate(g).inputs) {
            if (!heavy[static_cast<std::size_t>(src)]) continue;
            if (knows(consumer, src)) continue;
            const int holder = plan_.owner[static_cast<std::size_t>(src)];
            const Message& m =
                received[static_cast<std::size_t>(consumer)][static_cast<std::size_t>(holder)];
            CC_CHECK(m.size_bits() == 1, "expected exactly the forwarded bit");
            know[static_cast<std::size_t>(consumer)][src] = m.get(0);
          }
        }
      }
    }

    // ---- Phase (c): light-to-light wires via balanced routing ------------
    {
      RoutingDemand demand;
      demand.payload_bits = gate_addr + 1;
      for (int g : layers[layer]) {
        if (heavy[static_cast<std::size_t>(g)]) continue;
        const int consumer = plan_.owner[static_cast<std::size_t>(g)];
        for (int src : c.gate(g).inputs) {
          if (heavy[static_cast<std::size_t>(src)]) continue;
          const int holder = plan_.owner[static_cast<std::size_t>(src)];
          if (holder == consumer || knows(consumer, src)) continue;
          // Mark as pending-known to dedup multiple wires this layer; the
          // actual value lands after routing.
          know[static_cast<std::size_t>(consumer)][src] = false;  // placeholder
          const std::uint64_t payload =
              (static_cast<std::uint64_t>(src) << 1) |
              (value_at(holder, src) ? 1 : 0);
          demand.messages.push_back(RoutedMessage{holder, consumer, payload});
        }
      }
      if (!demand.messages.empty()) {
        RoutingResult routed = route(net, demand);
        for (int p = 0; p < n; ++p) {
          for (const auto& [src_player, payload] : routed.delivered[static_cast<std::size_t>(p)]) {
            (void)src_player;
            const int src_gate = static_cast<int>(payload >> 1);
            know[static_cast<std::size_t>(p)][src_gate] = (payload & 1) != 0;
          }
        }
      }
    }

    // ---- Local evaluation of this layer's light gates --------------------
    for (int g : layers[layer]) {
      if (heavy[static_cast<std::size_t>(g)]) continue;
      const Gate& gate = c.gate(g);
      if (gate.kind == GateKind::kConst) continue;
      const int p = plan_.owner[static_cast<std::size_t>(g)];
      std::vector<bool> in_values;
      in_values.reserve(gate.inputs.size());
      for (int src : gate.inputs) in_values.push_back(value_at(p, src));
      know[static_cast<std::size_t>(p)][g] = c.eval_gate(g, in_values);
    }
  }

  // Output stage (Remark 3): route output values to player 0.
  CircuitSimResult result;
  result.layers = static_cast<int>(layers.size());
  {
    RoutingDemand demand;
    const int out_addr = bits_for(static_cast<std::uint64_t>(std::max(1, c.num_outputs())));
    demand.payload_bits = out_addr + 1;
    std::vector<bool> outputs(static_cast<std::size_t>(c.num_outputs()), false);
    for (int i = 0; i < c.num_outputs(); ++i) {
      const int g = c.output_ids()[static_cast<std::size_t>(i)];
      const int holder = plan_.owner[static_cast<std::size_t>(g)];
      const bool v = value_at(holder, g);
      if (holder == 0) {
        outputs[static_cast<std::size_t>(i)] = v;
      } else {
        demand.messages.push_back(RoutedMessage{
            holder, 0,
            (static_cast<std::uint64_t>(i) << 1) | (v ? 1ULL : 0ULL)});
      }
    }
    if (!demand.messages.empty()) {
      RoutingResult routed = route(net, demand);
      for (const auto& [src, payload] : routed.delivered[0]) {
        (void)src;
        outputs[static_cast<std::size_t>(payload >> 1)] = (payload & 1) != 0;
      }
    }
    result.outputs = std::move(outputs);
  }
  result.stats = net.stats();
  return result;
}

CircuitSimResult CircuitSimulation::run_round_robin(
    CliqueUnicast& net, const std::vector<bool>& inputs) const {
  std::vector<int> owner(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    owner[i] = static_cast<int>(i % static_cast<std::size_t>(plan_.n_players));
  }
  return run(net, inputs, owner);
}

}  // namespace cclique
