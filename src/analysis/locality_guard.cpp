#include "analysis/locality_guard.h"

#ifdef CCLIQUE_LOCALITY_ENABLED

#include <sstream>

namespace cclique {
namespace locality {
namespace detail {

namespace {
/// One slot per thread: an engine runs one player's callback at a time on
/// the thread that drives it, so the active scope is a property of that
/// thread, never shared.
thread_local int tls_current_player = kNoPlayer;
}  // namespace

int current_player() noexcept { return tls_current_player; }

void set_current_player(int player) noexcept { tls_current_player = player; }

void throw_cross_player_access(int scope_player, int owner, const char* site) {
  std::ostringstream os;
  os << "locality violation: player " << scope_player
     << "'s callback accessed state owned by player " << owner
     << " (registered: " << site
     << ") — callbacks may touch only their own player's pre-round state";
  throw ModelViolation(os.str());
}

void throw_wrong_actor(int scope_player, int actor, const char* what) {
  std::ostringstream os;
  os << "locality violation: " << what << " attributed to player " << actor
     << " was performed inside player " << scope_player << "'s scope";
  throw ModelViolation(os.str());
}

}  // namespace detail
}  // namespace locality
}  // namespace cclique

#else

// The guard compiles to nothing in default builds; this translation unit
// intentionally has no symbols then (everything in the header is inline).

#endif  // CCLIQUE_LOCALITY_ENABLED
