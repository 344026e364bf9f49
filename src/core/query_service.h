// Batched multi-query serving over cached protocol artifacts.
//
// Every engine in this library executes one protocol per invocation, but
// production traffic is many concurrent point queries over one shared
// graph. The complexity-theoretic framing (Korhonen–Suomela, "Towards a
// complexity theory for the congested clique") treats one expensive
// round-optimal computation as a reusable object, and the algebraic line
// (Censor-Hillel et al., PODC'15) shows a single A² / distance-product run
// already answers whole query families — so this layer runs the expensive
// protocols once, retains what they leave behind, and amortizes them
// across a query stream:
//
//  * three artifact classes: the weighted APSP closure (distance matrix +
//    eccentricity spectrum + diameter/radius, one apsp_run), the counting
//    artifact (A² over F_{2^61-1} + exact triangle/4-cycle counts, one
//    counting_artifacts_run), and the unit-weight squaring chain
//    (ApspArtifacts: powers[s] = hop distance over walks of <= 2^s edges,
//    which answers k-hop reachability exactly);
//  * a versioned ArtifactCache keyed by (class, fingerprint), fingerprint
//    covering graph topology + weights + engine parameters. Mutating the
//    graph changes the fingerprint, so stale artifacts can never answer a
//    fresh batch — and reverting a mutation restores the original
//    fingerprint, so the old artifacts hit again. A resident-words cap
//    evicts least-recently-used entries (answers are eviction-independent:
//    an evicted class is simply recomputed on the next miss);
//  * pricing: every batch is priced by serving_plan — one full protocol
//    schedule per needed-and-absent class, *exactly zero rounds and zero
//    bits* for every resident class — and the measured CommStats delta is
//    CC_CHECKed against it, the same contract as every other *_plan. A
//    cache hit that charged even one bit is an InvariantError;
//  * determinism: admission order is QueryBatch push order; the miss phase
//    runs protocols in fixed class order; the answer phase is one serial
//    loop of local table lookups in admission order — answers and
//    CommStats are bit-identical at any CC_THREADS / CC_KERNEL setting;
//  * obliviousness: cache residency is payload-derived common knowledge
//    (which fingerprints were served before), exactly the standing of the
//    sparse schedule's announced nnz counts — it crosses into serving_plan
//    only through declared_residency()'s declared-dependence boundary, and
//    ArtifactCache::resident is a tainted source, so an undeclared
//    residency probe inside any length-decision sink throws under the
//    oblivious guard. Artifact *values* are answered outside all sinks;
//    reading one inside a sink (wiring an answer into a schedule) throws
//    via the matrices' own source_touch. See DESIGN.md §2.9.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "graph/graph.h"
#include "linalg/tropical.h"

namespace cclique {

/// Point-query vocabulary of the serving layer. Every answer is one 64-bit
/// word; distance-flavored answers use the tropical in-band convention
/// (kTropicalInf = unreachable / disconnected), reachability answers are
/// 0/1, counts are exact.
enum class QueryKind {
  kDist,        ///< d_w(u, v)
  kEcc,         ///< max_u d_w(v, u)
  kDiameter,    ///< max_v ecc(v)
  kRadius,      ///< min_v ecc(v)
  kTriangles,   ///< exact #triangles
  kFourCycles,  ///< exact #C4
  kReach,       ///< 1 iff v is reachable from u within <= k edges
};

/// One point query. Build via the factories so field use stays by-kind;
/// unused fields are zero and ignored.
struct Query {
  QueryKind kind = QueryKind::kDist;
  int u = 0;
  int v = 0;
  int k = 0;  ///< hop budget (kReach only; >= 0)

  static Query dist(int u, int v) { return {QueryKind::kDist, u, v, 0}; }
  static Query ecc(int v) { return {QueryKind::kEcc, 0, v, 0}; }
  static Query diameter() { return {QueryKind::kDiameter, 0, 0, 0}; }
  static Query radius() { return {QueryKind::kRadius, 0, 0, 0}; }
  static Query triangles() { return {QueryKind::kTriangles, 0, 0, 0}; }
  static Query four_cycles() { return {QueryKind::kFourCycles, 0, 0, 0}; }
  static Query reach(int u, int v, int k) { return {QueryKind::kReach, u, v, k}; }
};

/// An admitted batch: queries answered together against one graph version.
/// Admission order is push order — the scheduler answers queries in exactly
/// this order regardless of worker timing. A batch admitted before a graph
/// mutation is permanently stale: answering it throws (InvariantError).
class QueryBatch {
 public:
  void push(const Query& q) { queries_.push_back(q); }
  std::size_t size() const { return queries_.size(); }
  std::uint64_t version() const { return version_; }
  const std::vector<Query>& queries() const { return queries_; }

 private:
  friend class QueryService;
  explicit QueryBatch(std::uint64_t version) : version_(version) {}
  std::uint64_t version_ = 0;
  std::vector<Query> queries_;
};

/// Which artifact classes a batch needs — a pure function of the queries'
/// *kinds* (never of graph payload), so it is legal serving_plan input.
struct ArtifactNeed {
  bool apsp = false;      ///< kDist / kEcc / kDiameter / kRadius
  bool counting = false;  ///< kTriangles / kFourCycles
  bool hops = false;      ///< kReach
};

/// Cache-residency snapshot consumed by serving_plan. Payload-derived
/// common knowledge — obtain it through QueryService::declared_residency so
/// the dependence is declared to the oblivious guard.
struct ServingResidency {
  bool apsp = false;
  bool counting = false;
  bool hops = false;
};

/// The data-independent price of serving one batch given (need, residency):
/// one full protocol schedule per needed-and-absent class, zero rounds and
/// zero bits for every resident class. CC_CHECKed by QueryService::answer
/// against the measured CommStats delta on every batch.
struct ServingPlan {
  int n = 0;
  bool run_apsp = false;
  bool run_counting = false;
  bool run_hops = false;
  ApspPlan apsp;                  ///< filled iff run_apsp
  CountingArtifactPlan counting;  ///< filled iff run_counting
  ApspPlan hops;                  ///< filled iff run_hops (unit weights ride the same plan)
  int total_rounds = 0;
  std::uint64_t total_bits = 0;
};

/// Computes the serving schedule. A sink like every *_plan function: it
/// reads only plain booleans and (n, bandwidth) — the guard proves no
/// payload read sneaks in. Preconditions: n >= 1, bandwidth >= 1.
ServingPlan serving_plan(int n, int bandwidth, const ArtifactNeed& need,
                         const ServingResidency& resident);

/// The distance-closure artifact one apsp_run leaves behind.
struct ApspServingArtifact {
  TropicalMat dist;
  std::vector<std::uint64_t> eccentricity;
  std::uint64_t diameter = 0;
  std::uint64_t radius = 0;
  std::size_t footprint_words() const {
    return dist.footprint_words() + eccentricity.size();
  }
};

/// The unit-weight squaring chain: powers[s] is the exact hop distance over
/// walks of <= 2^s edges (powers[0] = the one-step matrix).
struct HopArtifact {
  std::vector<TropicalMat> powers;
  std::size_t footprint_words() const {
    std::size_t w = 0;
    for (const TropicalMat& m : powers) w += m.footprint_words();
    return w;
  }
};

/// Which protocol family produced an artifact.
enum class ArtifactClass { kApsp = 0, kCounting = 1, kHops = 2 };

/// Versioned artifact store keyed by (class, fingerprint) with
/// deterministic least-recently-used eviction under an optional
/// resident-words capacity. Use recency is a monotone counter bumped by
/// touch(), never wall-clock, so eviction order is reproducible.
class ArtifactCache {
 public:
  /// capacity_words == 0 means unbounded.
  explicit ArtifactCache(std::size_t capacity_words = 0)
      : capacity_words_(capacity_words) {}

  /// True iff (cls, fingerprint) is resident. Tainted oblivious source:
  /// residency depends on payload history, so probing it inside a
  /// length-decision sink requires a declared dependence
  /// (QueryService::declared_residency) or the guard throws.
  bool resident(ArtifactClass cls, std::uint64_t fingerprint) const;

  /// Artifact lookups (nullptr on miss). Pointers are invalidated by any
  /// put_* or evict_to_capacity call.
  const ApspServingArtifact* apsp(std::uint64_t fingerprint) const;
  const CountingArtifact* counting(std::uint64_t fingerprint) const;
  const HopArtifact* hops(std::uint64_t fingerprint) const;

  void put_apsp(std::uint64_t fingerprint, ApspServingArtifact artifact);
  void put_counting(std::uint64_t fingerprint, CountingArtifact artifact);
  void put_hops(std::uint64_t fingerprint, HopArtifact artifact);

  /// Bumps (cls, fingerprint)'s recency; no-op when absent.
  void touch(ArtifactClass cls, std::uint64_t fingerprint);

  /// Evicts least-recently-used entries until resident_words() fits the
  /// capacity (no-op when unbounded). Returns the number evicted.
  std::size_t evict_to_capacity();

  std::size_t capacity_words() const { return capacity_words_; }
  std::size_t resident_words() const { return resident_words_; }
  std::size_t entries() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::size_t words = 0;
    std::uint64_t last_use = 0;
    // Exactly one of these is set, matching the key's class.
    std::unique_ptr<ApspServingArtifact> apsp;
    std::unique_ptr<CountingArtifact> counting;
    std::unique_ptr<HopArtifact> hops;
  };
  using Key = std::pair<int, std::uint64_t>;  // (class, fingerprint)

  void insert(ArtifactClass cls, std::uint64_t fingerprint, Entry entry);

  std::size_t capacity_words_;
  std::size_t resident_words_ = 0;
  std::uint64_t use_clock_ = 0;
  std::uint64_t evictions_ = 0;
  // Ordered map: eviction scans are deterministic by construction (ties in
  // last_use are impossible — the clock is strictly monotone).
  std::map<Key, Entry> entries_;
};

/// Outcome of answering one batch.
struct BatchResult {
  ServingPlan plan;
  std::vector<std::uint64_t> answers;  ///< one per query, admission order
  int rounds = 0;            ///< measured delta; equals plan.total_rounds
  std::uint64_t bits = 0;    ///< measured delta; equals plan.total_bits
  std::uint64_t hits = 0;    ///< needed artifact classes served from cache
  std::uint64_t misses = 0;  ///< needed artifact classes built fresh
};

/// The serving layer: owns its engine, the current graph + weights, and
/// the artifact cache; answers batched point queries, running protocols
/// only on artifact misses.
class QueryService {
 public:
  struct Config {
    int bandwidth = 64;              ///< per-edge bits/round
    std::size_t capacity_words = 0;  ///< cache cap; 0 = unbounded
  };

  /// Weighted service: weights indexed by g.edges() order (the core/mst
  /// convention). Preconditions: n >= 1, one weight per edge.
  QueryService(const Graph& g, const std::vector<std::uint32_t>& weights,
               const Config& config);
  QueryService(const Graph& g, const std::vector<std::uint32_t>& weights)
      : QueryService(g, weights, Config{}) {}

  /// Unit-weight service (every edge weight 1).
  QueryService(const Graph& g, const Config& config);
  explicit QueryService(const Graph& g) : QueryService(g, Config{}) {}

  int n() const { return graph_.num_vertices(); }
  const Graph& graph() const { return graph_; }
  /// Monotone graph version; bumped only by *effective* mutations (adding
  /// an existing edge or removing an absent one changes nothing).
  std::uint64_t version() const { return version_; }
  /// Cache key of the current (graph, weights, engine-parameter) state.
  /// Reverting a mutation restores the previous fingerprint.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Adds edge {u, v} with the given weight. Returns true iff the edge was
  /// newly added (and the version bumped); adding an existing edge is a
  /// no-op that keeps its old weight.
  bool add_edge(int u, int v, std::uint32_t weight = 1);
  /// Removes edge {u, v}. Returns true iff it was removed (version bumped).
  bool remove_edge(int u, int v);
  /// Replaces the whole graph (n may change; the engine is rebuilt and its
  /// CommStats restart at zero when it does). Always bumps the version.
  void set_graph(const Graph& g, const std::vector<std::uint32_t>& weights);

  /// Opens a batch bound to the current version.
  QueryBatch new_batch() const { return QueryBatch(version_); }

  /// Answers a batch: validates every query (CC_REQUIRE: vertex ids in
  /// range, hop budgets >= 0), CC_CHECKs the batch against the current
  /// version (stale batches throw), runs the planned protocols for missing
  /// artifact classes in fixed class order, CC_CHECKs the measured
  /// CommStats delta against serving_plan (all-hit batches must measure
  /// exactly zero rounds and zero bits), then answers every query from
  /// local artifact reads.
  BatchResult answer(const QueryBatch& batch);

  /// Single-query convenience: a one-element batch at the current version.
  std::uint64_t answer_one(const Query& q);

  /// Cumulative engine accounting (every protocol this service ever ran).
  const CommStats& stats() const { return net_->stats(); }

  /// Residency snapshot through the oblivious guard's declared-dependence
  /// boundary (the declared_nnz_profile idiom): the serving schedule may
  /// depend on residency *because this function declares it*.
  ServingResidency declared_residency() const;

  const ArtifactCache& cache() const { return cache_; }
  std::uint64_t cache_hits() const { return hits_; }
  std::uint64_t cache_misses() const { return misses_; }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  std::size_t resident_words() const { return cache_.resident_words(); }

 private:
  void rebuild_derived();  // weights_ + fingerprint_ from graph_ / weight map
  std::uint64_t answer_query(const Query& q, const ApspServingArtifact* apsp,
                             const CountingArtifact* counting,
                             const HopArtifact* hops) const;

  Graph graph_;
  /// Weight lookup keyed by canonical (u << 32 | v); source of truth the
  /// edges()-ordered weights_ vector is rebuilt from after mutations.
  std::map<std::uint64_t, std::uint32_t> weight_by_edge_;
  std::vector<std::uint32_t> weights_;  ///< aligned to graph_.edges() order
  Config config_;
  std::unique_ptr<CliqueUnicast> net_;
  ArtifactCache cache_;
  std::uint64_t version_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cclique
