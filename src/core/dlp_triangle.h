// The Dolev–Lenzen–Peled [8] triangle-detection baseline on CLIQUE-UCAST.
//
// The paper builds on [8]'s bounds: deterministic Õ(n^{1/3}) rounds for
// triangle detection (and Õ(n^{(d-2)/d}) for d-vertex subgraphs), and a
// randomized O~(n^{1/3}/T^{2/3}) variant when the graph has at least T
// triangles. We implement both:
//
//  * Deterministic: split V into t = ceil(n^{1/3}) groups; assign each of
//    the <= C(t+2, 3) <= n group multisets {i, j, k} to a player; route
//    every present edge to every player whose multiset contains both
//    endpoint groups; each player scans its piece. Per-player traffic is
//    O(n^{4/3} log n) bits over n links: Õ(n^{1/3}) rounds.
//
//  * Randomized (>= T triangles promised): each player picks a uniformly
//    random group triple with t = floor((nT)^{1/3}) groups, announces it
//    (an all-gather of 3·bits_for(t) bits: one round once b covers it,
//    chunked below that), receives the matching edges —
//    O(n/(t^2)) = O(n^{1/3}/T^{2/3}) rounds per the paper — and any caught
//    triangle is reported. One-sided error: misses with probability
//    ~e^{-Omega(1)} per run, driven down by independent runs.
#pragma once

#include "comm/clique_unicast.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace cclique {

/// Result of a DLP-style detection run.
struct DlpResult {
  bool detected = false;
  CommStats stats;
  int groups = 0;  ///< t, the group-count parameter actually used
  /// Rounds the promised variant spent announcing triples, summed over the
  /// runs executed: ceil(3·bits_for(t) / b) per run on n >= 2 players.
  int announce_rounds = 0;
};

/// Deterministic Õ(n^{1/3})-round triangle detection. Exact (no error).
DlpResult dlp_triangle_detect(CliqueUnicast& net, const Graph& g);

/// Randomized accelerated variant under the promise of >= T triangles
/// (T >= 1). `runs` independent repetitions; one-sided error.
DlpResult dlp_triangle_detect_promised(CliqueUnicast& net, const Graph& g,
                                       std::uint64_t promised_triangles, int runs,
                                       Rng& rng);

}  // namespace cclique
