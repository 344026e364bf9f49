// Runtime obliviousness guard: mechanical enforcement of the data-oblivious
// schedule contract (the second protocol-conformance analysis layer, beside
// the locality guard).
//
// Every round/bit bound in this repo — the 6·n^{1/3} block-MM schedule, the
// Lotker phase caps, the APSP squaring plan — is sound only because
// communication *schedules* are data-oblivious: chunk lengths, round counts,
// and plan arguments are functions of (n, element width w, bandwidth b)
// alone, never of payload values. Until this subsystem existed the rule was
// prose (DESIGN.md §2.2/§2.4) plus per-protocol CC_CHECKs. This header turns
// it into a machine-checked invariant with three cooperating pieces:
//
//  * source_touch — payload-bearing inputs register their read accessors as
//    tainted sources: Mat61/TropicalMat/F2Matrix entry/row/storage reads and
//    the MST edge-weight ingestion call it (see CC_OBLIVIOUS_SITE). Reading
//    a source is always legal in orchestrator and local-compute code; the
//    guard constrains *where* sources may be read, not what is done with
//    them.
//
//  * SinkScope — an RAII scope marking a region whose outputs become
//    lengths, round counts, or plan fields: every `*_plan` function body,
//    the forwarding transports' stream lengths (unicast_payloads,
//    unicast_payloads_relayed, broadcast_payloads), the router's relay
//    schedules, and — opened by the engines themselves — every send/fill
//    callback. The scope is thread-local exactly like
//    locality::PlayerScope, and the engines open it on the thread that
//    drives the round (the kernel pool's workers never open one). A
//    source_touch while a SinkScope is active throws ModelViolation naming
//    the source site and the sink site.
//
//  * DeclaredDependence — the explicit escape hatch the sparse matrix
//    schedules (core/sparse_mm) use: schedules whose lengths legitimately
//    depend on data-derived but common-knowledge quantities (nnz counts,
//    live-fragment counts) open `auto dd = oblivious::declared_dependence(
//    CC_OBLIVIOUS_SITE("..."))` around the dependent computation. Declared
//    reads are counted (declared_use_count) instead of throwing, so tests
//    and audits can see every declared boundary exercised.
//
// Why dynamic-extent taint (read-inside-sink) instead of value-level taint:
// tracking taint through arithmetic would need a shadow bit on every word.
// The repo's idiom makes the cheap rule exact: payload values are
// pre-serialized into Message objects *before* a round (comm/model.h), so
// send/fill callbacks and plan bodies have no legitimate reason to touch
// payload storage at all. The completeness gap (a tainted value laundered
// through a variable before the sink) is closed by the static analyzer
// (tools/cc_oblivious.py), which follows flows the runtime cannot, and by
// the every-run plan CC_CHECKs (measured == (n, w, b)-only plan). See
// DESIGN.md §2.7 for the full contract.
//
// Cost model: identical to the locality guard. Everything here compiles to
// nothing unless the build defines CCLIQUE_OBLIVIOUS_ENABLED (the
// CCLIQUE_OBLIVIOUS=ON CMake option / the `oblivious` preset): SinkScope
// and DeclaredDependence are empty objects, source_touch is an empty inline
// function, and the 18 committed bench baselines are byte-identical with
// the guard compiled out.
#pragma once

#include <cstdint>

#include "util/check.h"

namespace cclique {
namespace oblivious {

#ifdef CCLIQUE_OBLIVIOUS_ENABLED

namespace detail {
/// The innermost active sink scope of this thread (nullptr when none).
const char* active_sink() noexcept;
void set_active_sink(const char* site) noexcept;
/// The innermost active declared-dependence site (nullptr when none).
const char* active_declaration() noexcept;
void set_active_declaration(const char* site) noexcept;
/// Records one suppressed (declared) source read. Thread-safe.
void count_declared_use() noexcept;
/// Throws ModelViolation naming both coordinates of the taint flow.
[[noreturn]] void throw_tainted_read(const char* source_site,
                                     const char* sink_site);
}  // namespace detail

/// RAII length/round-decision scope. Engines open one around each send/fill
/// callback; plan functions and payload drivers open one around their body.
/// Nests safely (the previous sink is restored on destruction) — the
/// innermost sink is the one a violation names.
class SinkScope {
 public:
  explicit SinkScope(const char* site) noexcept
      : prev_(detail::active_sink()) {
    detail::set_active_sink(site);
  }
  ~SinkScope() { detail::set_active_sink(prev_); }

  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  const char* prev_;
};

/// RAII declared-dependence region: while alive on this thread, source
/// reads inside sinks are counted instead of thrown. Obtain one through
/// declared_dependence() so call sites read as declarations.
class DeclaredDependence {
 public:
  explicit DeclaredDependence(const char* site) noexcept
      : prev_(detail::active_declaration()) {
    detail::set_active_declaration(site);
  }
  ~DeclaredDependence() { detail::set_active_declaration(prev_); }

  DeclaredDependence(const DeclaredDependence&) = delete;
  DeclaredDependence& operator=(const DeclaredDependence&) = delete;

 private:
  const char* prev_;
};

/// True iff the guard is compiled in (the CCLIQUE_OBLIVIOUS=ON build).
constexpr bool enabled() noexcept { return true; }

/// The innermost active sink site on this thread, or nullptr.
inline const char* active_sink() noexcept { return detail::active_sink(); }

/// Core check, called by every tainted read accessor: free outside sinks;
/// counted under a declared dependence; a ModelViolation otherwise.
inline void source_touch(const char* site) {
  const char* sink = detail::active_sink();
  if (sink == nullptr) return;
  if (detail::active_declaration() != nullptr) {
    detail::count_declared_use();
    return;
  }
  detail::throw_tainted_read(site, sink);
}

/// Process-wide count of declared (suppressed) source reads — lets tests
/// assert the escape hatch actually fired rather than the read being legal
/// for some other reason.
std::uint64_t declared_use_count() noexcept;

#else  // !CCLIQUE_OBLIVIOUS_ENABLED — the zero-cost build

class SinkScope {
 public:
  explicit SinkScope(const char*) noexcept {}
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;
};

class DeclaredDependence {
 public:
  explicit DeclaredDependence(const char*) noexcept {}
  DeclaredDependence(const DeclaredDependence&) = delete;
  DeclaredDependence& operator=(const DeclaredDependence&) = delete;
};

constexpr bool enabled() noexcept { return false; }
inline const char* active_sink() noexcept { return nullptr; }
inline void source_touch(const char* /*site*/) noexcept {}
inline std::uint64_t declared_use_count() noexcept { return 0; }

#endif  // CCLIQUE_OBLIVIOUS_ENABLED

/// Factory so declarations read as such at call sites:
///   auto dd = oblivious::declared_dependence(
///       CC_OBLIVIOUS_SITE("sparse schedule depends on announced nnz"));
/// (Guaranteed copy elision: DeclaredDependence itself is non-copyable.)
inline DeclaredDependence declared_dependence(const char* site) noexcept {
  return DeclaredDependence(site);
}

}  // namespace oblivious
}  // namespace cclique

#define CC_OBLIVIOUS_STR_IMPL(x) #x
#define CC_OBLIVIOUS_STR(x) CC_OBLIVIOUS_STR_IMPL(x)

/// Site literal for sources, sinks, and declared dependences: a
/// human-readable name plus the registration coordinates, e.g.
/// "Mat61::get @ linalg/mat61.h:41".
#define CC_OBLIVIOUS_SITE(name) \
  name " @ " __FILE__ ":" CC_OBLIVIOUS_STR(__LINE__)
