// CONGEST-UCAST(n, b): unicast over the *input graph's* edges.
//
// The classical CONGEST model [33]: the communication topology equals the
// input graph G, so a round carries at most b bits per direction on each
// graph edge. Used by the δ-sparse lower bounds of Definition 12 /
// Lemma 13 and by the in-network 4-cycle detection upper bound.
//
// Built on the shared metered transport core (comm/engine.h): fill callbacks
// run serially in player order, a failed round commits nothing, and a round
// commits through one charge_stream call whose length matrix is zero off
// the topology's edges.
#pragma once

#include <functional>
#include <vector>

#include "comm/engine.h"
#include "comm/model.h"
#include "graph/graph.h"
#include "util/check.h"

namespace cclique {

/// Round-synchronous engine for CONGEST over a fixed topology.
class CongestUnicast {
 public:
  CongestUnicast(const Graph& topology, int bandwidth);

  int n() const { return core_.n(); }
  int bandwidth() const { return core_.bandwidth(); }
  const Graph& topology() const { return topology_; }

  /// Outbox-filling callback: `outbox` points at one engine-owned message
  /// per incident edge, in topology().neighbors(player) order (initially
  /// empty). A message over bandwidth() bits throws ModelViolation when the
  /// callback returns, before the next player runs.
  using FillFn = std::function<void(int player, Message* outbox)>;

  /// inbox is aligned with topology().neighbors(player) as well.
  using RecvFn = std::function<void(int player, const std::vector<Message>& inbox)>;

  /// Executes one synchronous round: every outbox is filled against
  /// pre-round state in player order, then delivered in player order. Cost:
  /// 1 round, sum-of-message-sizes bits. Outboxes are reused round after
  /// round and each inbox is swapped in from them for its callback, so a
  /// delivered message is valid only for the duration of the callback.
  void round_fill(const FillFn& fill, const RecvFn& recv);

  /// Registers a vertex bipartition; cut_bits accumulates bits on cut edges.
  void set_cut(std::vector<int> side) { core_.set_cut(std::move(side)); }

  const CommStats& stats() const { return core_.stats(); }
  void reset_stats() { core_.reset_stats(); }

 private:
  Graph topology_;
  EngineCore core_;
  /// reverse_slot_[v][k]: v's index among the neighbors of its k-th
  /// neighbor. Precomputed so delivery is O(degree) per node per round.
  std::vector<std::vector<std::size_t>> reverse_slot_;
  /// Outbox slots, one per directed edge, allocated on the first round:
  /// v's outbox starts at slots_[slot_begin_[v]].
  std::vector<std::size_t> slot_begin_;
  std::vector<Message> slots_;
  std::vector<Message> inbox_;
  LengthMatrix len_;  ///< the round's message lengths, zero off the edges
};

}  // namespace cclique
