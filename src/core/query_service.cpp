#include "core/query_service.h"

#include <algorithm>
#include <utility>

#include "analysis/oblivious_guard.h"
#include "util/check.h"
#include "util/math_util.h"

namespace cclique {

namespace {

/// SplitMix64 step — the fingerprint combiner. Any 64-bit mixer works; this
/// one matches the Rng seeding so the hash quality story is shared.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t edge_key(int u, int v) {
  const Edge e(u, v);  // canonicalizes u < v
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
         static_cast<std::uint32_t>(e.v);
}

/// Which artifact classes a batch's query kinds demand — kinds only, never
/// graph payload, so the result is legal serving_plan input.
ArtifactNeed need_of(const std::vector<Query>& queries) {
  ArtifactNeed need;
  for (const Query& q : queries) {
    switch (q.kind) {
      case QueryKind::kDist:
      case QueryKind::kEcc:
      case QueryKind::kDiameter:
      case QueryKind::kRadius:
        need.apsp = true;
        break;
      case QueryKind::kTriangles:
      case QueryKind::kFourCycles:
        need.counting = true;
        break;
      case QueryKind::kReach:
        need.hops = true;
        break;
    }
  }
  return need;
}

void validate_query(const Query& q, int n) {
  switch (q.kind) {
    case QueryKind::kDist:
      CC_REQUIRE(q.u >= 0 && q.u < n && q.v >= 0 && q.v < n,
                 "dist query vertex out of range");
      break;
    case QueryKind::kEcc:
      CC_REQUIRE(q.v >= 0 && q.v < n, "ecc query vertex out of range");
      break;
    case QueryKind::kDiameter:
    case QueryKind::kRadius:
    case QueryKind::kTriangles:
    case QueryKind::kFourCycles:
      break;
    case QueryKind::kReach:
      CC_REQUIRE(q.u >= 0 && q.u < n && q.v >= 0 && q.v < n,
                 "reach query vertex out of range");
      CC_REQUIRE(q.k >= 0, "reach query needs a non-negative hop budget");
      break;
  }
}

}  // namespace

ServingPlan serving_plan(int n, int bandwidth, const ArtifactNeed& need,
                         const ServingResidency& resident) {
  // Plan-function sink: the batch schedule is priced from (n, bandwidth)
  // and the two boolean triples alone. Residency is payload-derived, but it
  // arrives here as plain booleans already laundered through
  // declared_residency()'s declared-dependence boundary — reading any
  // payload (or an undeclared residency probe) in this scope throws.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("serving_plan"));
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  ServingPlan plan;
  plan.n = n;
  plan.run_apsp = need.apsp && !resident.apsp;
  plan.run_counting = need.counting && !resident.counting;
  plan.run_hops = need.hops && !resident.hops;
  if (plan.run_apsp) {
    plan.apsp = apsp_plan(n, bandwidth);
    plan.total_rounds += plan.apsp.total_rounds;
    plan.total_bits += plan.apsp.total_bits;
  }
  if (plan.run_counting) {
    plan.counting = counting_artifacts_plan(n, bandwidth);
    plan.total_rounds += plan.counting.total_rounds;
    plan.total_bits += plan.counting.total_bits;
  }
  if (plan.run_hops) {
    // Unit weights change entry values only, never payload lengths, so the
    // hop chain rides the identical APSP schedule.
    plan.hops = apsp_plan(n, bandwidth);
    plan.total_rounds += plan.hops.total_rounds;
    plan.total_bits += plan.hops.total_bits;
  }
  // Every resident class contributes exactly nothing: a cache hit costs
  // zero rounds and zero bits, and answer() CC_CHECKs the measured delta.
  return plan;
}

// ---------------------------------------------------------------------------
// ArtifactCache

bool ArtifactCache::resident(ArtifactClass cls, std::uint64_t fingerprint) const {
  // Residency is a function of which payloads were served before — reading
  // it while a schedule is being decided must go through a declared
  // dependence, exactly like the sparse schedule's announced nnz counts.
  oblivious::source_touch(CC_OBLIVIOUS_SITE("ArtifactCache::resident"));
  return entries_.count({static_cast<int>(cls), fingerprint}) != 0;
}

const ApspServingArtifact* ArtifactCache::apsp(std::uint64_t fingerprint) const {
  const auto it = entries_.find({static_cast<int>(ArtifactClass::kApsp), fingerprint});
  return it == entries_.end() ? nullptr : it->second.apsp.get();
}

const CountingArtifact* ArtifactCache::counting(std::uint64_t fingerprint) const {
  const auto it = entries_.find({static_cast<int>(ArtifactClass::kCounting), fingerprint});
  return it == entries_.end() ? nullptr : it->second.counting.get();
}

const HopArtifact* ArtifactCache::hops(std::uint64_t fingerprint) const {
  const auto it = entries_.find({static_cast<int>(ArtifactClass::kHops), fingerprint});
  return it == entries_.end() ? nullptr : it->second.hops.get();
}

void ArtifactCache::insert(ArtifactClass cls, std::uint64_t fingerprint,
                           Entry entry) {
  const Key key{static_cast<int>(cls), fingerprint};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    resident_words_ -= it->second.words;
    entries_.erase(it);
  }
  resident_words_ += entry.words;
  entry.last_use = ++use_clock_;
  entries_.emplace(key, std::move(entry));
}

void ArtifactCache::put_apsp(std::uint64_t fingerprint, ApspServingArtifact artifact) {
  Entry e;
  e.words = artifact.footprint_words();
  e.apsp = std::make_unique<ApspServingArtifact>(std::move(artifact));
  insert(ArtifactClass::kApsp, fingerprint, std::move(e));
}

void ArtifactCache::put_counting(std::uint64_t fingerprint, CountingArtifact artifact) {
  Entry e;
  e.words = artifact.a2.footprint_words();
  e.counting = std::make_unique<CountingArtifact>(std::move(artifact));
  insert(ArtifactClass::kCounting, fingerprint, std::move(e));
}

void ArtifactCache::put_hops(std::uint64_t fingerprint, HopArtifact artifact) {
  Entry e;
  e.words = artifact.footprint_words();
  e.hops = std::make_unique<HopArtifact>(std::move(artifact));
  insert(ArtifactClass::kHops, fingerprint, std::move(e));
}

void ArtifactCache::touch(ArtifactClass cls, std::uint64_t fingerprint) {
  const auto it = entries_.find({static_cast<int>(cls), fingerprint});
  if (it != entries_.end()) it->second.last_use = ++use_clock_;
}

std::size_t ArtifactCache::evict_to_capacity() {
  if (capacity_words_ == 0) return 0;
  std::size_t evicted = 0;
  while (resident_words_ > capacity_words_ && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    resident_words_ -= victim->second.words;
    entries_.erase(victim);
    ++evicted;
    ++evictions_;
  }
  return evicted;
}

// ---------------------------------------------------------------------------
// QueryService

QueryService::QueryService(const Graph& g,
                           const std::vector<std::uint32_t>& weights,
                           const Config& config)
    : graph_(g), config_(config), cache_(config.capacity_words) {
  CC_REQUIRE(g.num_vertices() >= 1, "need at least one vertex");
  const std::vector<Edge> edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  for (std::size_t e = 0; e < edges.size(); ++e) {
    weight_by_edge_[edge_key(edges[e].u, edges[e].v)] = weights[e];
  }
  net_ = std::make_unique<CliqueUnicast>(g.num_vertices(), config_.bandwidth);
  rebuild_derived();
}

QueryService::QueryService(const Graph& g, const Config& config)
    : QueryService(g, std::vector<std::uint32_t>(g.num_edges(), 1), config) {}

void QueryService::rebuild_derived() {
  const std::vector<Edge> edges = graph_.edges();
  weights_.clear();
  weights_.reserve(edges.size());
  std::uint64_t fp = mix(0x636c697175650000ULL,  // arbitrary domain tag
                         static_cast<std::uint64_t>(graph_.num_vertices()));
  fp = mix(fp, static_cast<std::uint64_t>(config_.bandwidth));
  for (const Edge& e : edges) {
    const auto it = weight_by_edge_.find(edge_key(e.u, e.v));
    CC_CHECK(it != weight_by_edge_.end(), "edge without a stored weight");
    weights_.push_back(it->second);
    fp = mix(fp, edge_key(e.u, e.v));
    fp = mix(fp, it->second);
  }
  fingerprint_ = fp;
}

bool QueryService::add_edge(int u, int v, std::uint32_t weight) {
  if (!graph_.add_edge(u, v)) return false;  // idempotent: no version bump
  weight_by_edge_[edge_key(u, v)] = weight;
  ++version_;
  rebuild_derived();
  return true;
}

bool QueryService::remove_edge(int u, int v) {
  if (!graph_.remove_edge(u, v)) return false;
  weight_by_edge_.erase(edge_key(u, v));
  ++version_;
  rebuild_derived();
  return true;
}

void QueryService::set_graph(const Graph& g,
                             const std::vector<std::uint32_t>& weights) {
  CC_REQUIRE(g.num_vertices() >= 1, "need at least one vertex");
  const std::vector<Edge> edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  if (g.num_vertices() != graph_.num_vertices()) {
    net_ = std::make_unique<CliqueUnicast>(g.num_vertices(), config_.bandwidth);
  }
  graph_ = g;
  weight_by_edge_.clear();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    weight_by_edge_[edge_key(edges[e].u, edges[e].v)] = weights[e];
  }
  ++version_;
  rebuild_derived();
}

ServingResidency QueryService::declared_residency() const {
  // Residency is payload-derived common knowledge (which fingerprints were
  // served before) — the same standing as the sparse schedule's announced
  // nnz counts, and the same idiom as declared_nnz_profile: the sink
  // asserts the probes below would be violations if undeclared, and the
  // declaration routes them through the guard's counted escape hatch.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("declared_residency"));
  [[maybe_unused]] auto dd = oblivious::declared_dependence(
      CC_OBLIVIOUS_SITE("serving schedule depends on artifact residency"));
  ServingResidency r;
  r.apsp = cache_.resident(ArtifactClass::kApsp, fingerprint_);
  r.counting = cache_.resident(ArtifactClass::kCounting, fingerprint_);
  r.hops = cache_.resident(ArtifactClass::kHops, fingerprint_);
  return r;
}

std::uint64_t QueryService::answer_query(const Query& q,
                                         const ApspServingArtifact* apsp,
                                         const CountingArtifact* counting,
                                         const HopArtifact* hops) const {
  switch (q.kind) {
    case QueryKind::kDist:
      return apsp->dist.get(q.u, q.v);
    case QueryKind::kEcc:
      return apsp->eccentricity[static_cast<std::size_t>(q.v)];
    case QueryKind::kDiameter:
      return apsp->diameter;
    case QueryKind::kRadius:
      return apsp->radius;
    case QueryKind::kTriangles:
      return counting->triangles;
    case QueryKind::kFourCycles:
      return counting->four_cycles;
    case QueryKind::kReach: {
      if (q.u == q.v) return 1;
      if (q.k == 0) return 0;
      // powers[s] is exact for hop distances <= 2^s, so the smallest power
      // covering the budget decides: d <= k <= 2^s is represented exactly,
      // and d > k implies powers[s] > k (a longer hop count or +inf).
      const int last = static_cast<int>(hops->powers.size()) - 1;
      const int s = std::min(ceil_log2(static_cast<std::uint64_t>(q.k)), last);
      return hops->powers[static_cast<std::size_t>(s)].get(q.u, q.v) <=
                     static_cast<std::uint64_t>(q.k)
                 ? 1
                 : 0;
    }
  }
  CC_CHECK(false, "unreachable query kind");
  return 0;
}

BatchResult QueryService::answer(const QueryBatch& batch) {
  CC_CHECK(batch.version() == version_,
           "stale batch: the graph mutated after admission");
  const int n = graph_.num_vertices();
  for (const Query& q : batch.queries()) validate_query(q, n);

  // ---- Price the batch: needed classes from the query kinds, residency
  // through the declared-dependence boundary, then the plan sink.
  const ArtifactNeed need = need_of(batch.queries());
  const ServingResidency resident = declared_residency();
  const ServingPlan plan = serving_plan(n, config_.bandwidth, need, resident);

  // ---- Miss phase: fixed class order (apsp, counting, hops) regardless of
  // query order, so the engine's round trace is a function of the plan
  // alone. Resident classes run nothing — the CC_CHECKs below pin their
  // cost to exactly zero.
  const ChargedSince charged(net_->stats());
  if (plan.run_apsp) {
    ApspResult r = apsp_run(*net_, graph_, weights_);
    ApspServingArtifact a;
    a.dist = std::move(r.dist);
    a.eccentricity = std::move(r.eccentricity);
    a.diameter = r.diameter;
    a.radius = r.radius;
    cache_.put_apsp(fingerprint_, std::move(a));
  }
  if (plan.run_counting) {
    cache_.put_counting(fingerprint_, counting_artifacts_run(*net_, graph_));
  }
  if (plan.run_hops) {
    const std::vector<std::uint32_t> unit(graph_.num_edges(), 1);
    ApspArtifacts arts;
    apsp_run(*net_, graph_, unit, CountBackend::kDense, &arts);
    HopArtifact h;
    h.powers = std::move(arts.powers);
    cache_.put_hops(fingerprint_, std::move(h));
  }

  BatchResult out;
  out.plan = plan;
  out.rounds = charged.rounds();
  out.bits = charged.bits();
  charged.check(plan.total_rounds, plan.total_bits,
                "serving left the planned schedule — a cache hit must charge exactly zero");

  // ---- Hit/miss accounting per needed class (a class built this batch
  // counts as the miss that built it).
  struct ClassNeed {
    bool needed;
    bool ran;
    ArtifactClass cls;
  };
  const ClassNeed classes[3] = {
      {need.apsp, plan.run_apsp, ArtifactClass::kApsp},
      {need.counting, plan.run_counting, ArtifactClass::kCounting},
      {need.hops, plan.run_hops, ArtifactClass::kHops},
  };
  for (const ClassNeed& c : classes) {
    if (!c.needed) continue;
    if (c.ran) {
      ++out.misses;
    } else {
      ++out.hits;
    }
    cache_.touch(c.cls, fingerprint_);
  }
  hits_ += out.hits;
  misses_ += out.misses;

  // ---- Answer phase: zero communication, one local table lookup per
  // query in admission order.
  const ApspServingArtifact* apsp = need.apsp ? cache_.apsp(fingerprint_) : nullptr;
  const CountingArtifact* counting =
      need.counting ? cache_.counting(fingerprint_) : nullptr;
  const HopArtifact* hops = need.hops ? cache_.hops(fingerprint_) : nullptr;
  CC_CHECK(!need.apsp || apsp != nullptr, "planned APSP artifact missing");
  CC_CHECK(!need.counting || counting != nullptr,
           "planned counting artifact missing");
  CC_CHECK(!need.hops || hops != nullptr, "planned hop artifact missing");

  out.answers.reserve(batch.size());
  for (const Query& query : batch.queries()) {
    out.answers.push_back(answer_query(query, apsp, counting, hops));
  }

  // ---- Eviction runs after answering (never mid-batch), so a size cap can
  // change future costs but never this batch's answers.
  cache_.evict_to_capacity();
  return out;
}

std::uint64_t QueryService::answer_one(const Query& q) {
  QueryBatch batch = new_batch();
  batch.push(q);
  return answer(batch).answers[0];
}

}  // namespace cclique
