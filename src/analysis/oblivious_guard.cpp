#include "analysis/oblivious_guard.h"

#ifdef CCLIQUE_OBLIVIOUS_ENABLED

#include <atomic>
#include <sstream>

namespace cclique {
namespace oblivious {
namespace detail {

namespace {
/// One slot per thread, like the locality guard's player scope: an engine
/// runs one callback at a time on the thread that drives it, so the active
/// sink is a property of that thread, never shared.
thread_local const char* tls_active_sink = nullptr;
thread_local const char* tls_active_declaration = nullptr;
/// Process-wide: engines driven from different host threads may declare
/// reads at once, so the audit counter is atomic (relaxed — it is a tally,
/// not a synchronization point).
std::atomic<std::uint64_t> g_declared_uses{0};
}  // namespace

const char* active_sink() noexcept { return tls_active_sink; }

void set_active_sink(const char* site) noexcept { tls_active_sink = site; }

const char* active_declaration() noexcept { return tls_active_declaration; }

void set_active_declaration(const char* site) noexcept {
  tls_active_declaration = site;
}

void count_declared_use() noexcept {
  g_declared_uses.fetch_add(1, std::memory_order_relaxed);
}

void throw_tainted_read(const char* source_site, const char* sink_site) {
  std::ostringstream os;
  os << "obliviousness violation: payload source (" << source_site
     << ") read inside length/round sink (" << sink_site
     << ") — schedules must be functions of (n, w, b) alone; wrap a "
        "legitimate data-dependent schedule in "
        "oblivious::declared_dependence(site)";
  throw ModelViolation(os.str());
}

}  // namespace detail

std::uint64_t declared_use_count() noexcept {
  return detail::g_declared_uses.load(std::memory_order_relaxed);
}

}  // namespace oblivious
}  // namespace cclique

#else

// The guard compiles to nothing in default builds; this translation unit
// intentionally has no symbols then (everything in the header is inline).

#endif  // CCLIQUE_OBLIVIOUS_ENABLED
