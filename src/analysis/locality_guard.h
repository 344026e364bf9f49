// Runtime locality guard: mechanical enforcement of the simulated-clique
// memory model (the protocol-conformance analysis layer).
//
// The locality discipline (comm/model.h) says a player's callback may
// compute only from that player's own pre-round state and previously
// delivered messages. Until this subsystem existed the rule was prose — it
// was enforced by doc-comments and reviewers, and it was violated twice
// (a shared RNG in send callbacks, and a receive-callback fallback into
// another player's private splitter). This header turns the rule into a
// machine-checked invariant with two cooperating pieces:
//
//  * PlayerScope — an RAII scope the engines (comm/clique_unicast,
//    comm/clique_broadcast, comm/congest) open around every send and
//    receive callback. The engines run one callback at a time on the
//    thread that drives the round, so the scope names exactly the player
//    whose callback is running; it is thread-local, so engines driven from
//    different host threads never see each other's scope.
//
//  * PerPlayer<T> — an ownership-tagged per-player state array (the
//    tag-on-construction helper for workload state structs). Element i is
//    owned by player i; the construction site registers with the guard.
//    Any read or write of player j's element while player i's scope is
//    active throws ModelViolation naming both players and the registration
//    site. Outside any scope (orchestrator code that sets up a simulation,
//    or "identical decode everywhere; model once" common-knowledge
//    assembly) access is unrestricted — the discipline constrains
//    *callbacks*, which is where the model is at stake.
//
// Cost model: everything here compiles to nothing unless the build defines
// CCLIQUE_LOCALITY_ENABLED (the CCLIQUE_LOCALITY=ON CMake option / the
// `locality` preset). In the default and bench builds PlayerScope is an
// empty object, check_access is an empty inline function, and
// PerPlayer<T>::operator[] is a plain unchecked vector index — the 18
// committed bench baselines are byte-identical with the guard compiled out.
//
// What to tag: state that belongs to one simulated player (its input
// block, its candidate edge, its private sample). What NOT to tag: state
// that is common knowledge by construction (announced fragment ids,
// all-gathered splitters/counts after their exchange round) — tagging it
// would outlaw the legitimate "model once" decode pattern. See DESIGN.md
// §2.5 for the full rules and a worked example.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace cclique {
namespace locality {

/// Sentinel: no player scope is active on this thread.
constexpr int kNoPlayer = -1;

#ifdef CCLIQUE_LOCALITY_ENABLED

namespace detail {
/// The active player scope of this thread (kNoPlayer when none). An engine
/// runs one player's callback at a time, so a plain thread-local integer is
/// exact, not approximate.
int current_player() noexcept;
void set_current_player(int player) noexcept;
/// Throws ModelViolation naming the scoped player, the owner, and the
/// registration site of the violated state.
[[noreturn]] void throw_cross_player_access(int scope_player, int owner,
                                            const char* site);
/// Throws ModelViolation for an action performed under the wrong scope
/// (e.g. a NOF blackboard write attributed to a different party).
[[noreturn]] void throw_wrong_actor(int scope_player, int actor,
                                    const char* what);
}  // namespace detail

/// RAII per-player scope. The engines open one around each callback; it
/// nests safely (the previous scope is restored on destruction), so an
/// engine driven from inside another engine's scope — which the discipline
/// forbids anyway — cannot corrupt the tracking.
class PlayerScope {
 public:
  explicit PlayerScope(int player) noexcept
      : prev_(detail::current_player()) {
    detail::set_current_player(player);
  }
  ~PlayerScope() { detail::set_current_player(prev_); }

  PlayerScope(const PlayerScope&) = delete;
  PlayerScope& operator=(const PlayerScope&) = delete;

 private:
  int prev_;
};

/// The player whose scope is active on this thread, or kNoPlayer.
inline int current_player() noexcept { return detail::current_player(); }

/// True iff the guard is compiled in (the CCLIQUE_LOCALITY=ON build).
constexpr bool enabled() noexcept { return true; }

/// Core check: accessing state owned by `owner` is legal outside any scope
/// and inside the owner's own scope; anything else is a model violation.
inline void check_access(int owner, const char* site) {
  const int p = detail::current_player();
  if (p != kNoPlayer && p != owner) {
    detail::throw_cross_player_access(p, owner, site);
  }
}

/// Checks that an action attributed to player `actor` is not being
/// performed under some other player's scope (the PartyMeter/NOF-blackboard
/// conformance rule: you may only spend your own budget).
inline void check_actor(int actor, const char* what) {
  const int p = detail::current_player();
  if (p != kNoPlayer && p != actor) {
    detail::throw_wrong_actor(p, actor, what);
  }
}

#else  // !CCLIQUE_LOCALITY_ENABLED — the zero-cost build

class PlayerScope {
 public:
  explicit PlayerScope(int) noexcept {}
  PlayerScope(const PlayerScope&) = delete;
  PlayerScope& operator=(const PlayerScope&) = delete;
};

inline int current_player() noexcept { return kNoPlayer; }
constexpr bool enabled() noexcept { return false; }
inline void check_access(int /*owner*/, const char* /*site*/) noexcept {}
inline void check_actor(int /*actor*/, const char* /*what*/) noexcept {}

#endif  // CCLIQUE_LOCALITY_ENABLED

/// Ownership-tagged per-player state: element i belongs to player i. The
/// registration site string (use CC_LOCALITY_SITE) is carried into every
/// violation message so the report names the state, not just the indices.
///
/// Indexing takes the *player id* directly (no size_t casts at call sites);
/// ids are bounds-checked in every build — the guard must never turn a
/// locality bug into an out-of-bounds read.
template <typename T>
class PerPlayer {
 public:
  PerPlayer() = default;
  /// n default-constructed elements registered at `site`.
  PerPlayer(int n, const char* site)
      : data_(checked_size(n)), site_(site) {}
  /// n copies of `init` registered at `site`.
  PerPlayer(int n, const T& init, const char* site)
      : data_(checked_size(n), init), site_(site) {}

  int size() const { return static_cast<int>(data_.size()); }

  /// Checked access by player id (see check_access for the scope rules).
  T& operator[](int player) {
    bounds(player);
    locality::check_access(player, site_);
    return data_[static_cast<std::size_t>(player)];
  }
  const T& operator[](int player) const {
    bounds(player);
    locality::check_access(player, site_);
    return data_[static_cast<std::size_t>(player)];
  }

  /// The current scope's own element. Requires an active scope (even in
  /// guard-off builds this is only called from scoped code, where the
  /// caller knows its id — prefer operator[] with the callback parameter).
  T& mine() {
    const int p = locality::current_player();
    CC_REQUIRE(p != kNoPlayer, "PerPlayer::mine() needs an active PlayerScope");
    return (*this)[p];
  }

  /// Unchecked read-only view for orchestrator-level assembly *after* the
  /// exchange that made the contents common knowledge. Never call this from
  /// a callback — the whole point is that callbacks go through operator[].
  const std::vector<T>& raw() const { return data_; }

  /// Moves the storage out (the "private state became common knowledge and
  /// now lives in the result struct" hand-off).
  std::vector<T> take() { return std::move(data_); }

  const char* site() const { return site_; }

 private:
  static std::size_t checked_size(int n) {
    CC_REQUIRE(n >= 0, "PerPlayer size must be non-negative");
    return static_cast<std::size_t>(n);
  }
  void bounds(int player) const {
    CC_REQUIRE(player >= 0 && player < size(),
               "PerPlayer index is not a valid player id");
  }

  std::vector<T> data_;
  const char* site_ = "<unregistered>";
};

}  // namespace locality
}  // namespace cclique

#define CC_LOCALITY_STR_IMPL(x) #x
#define CC_LOCALITY_STR(x) CC_LOCALITY_STR_IMPL(x)

/// Registration-site literal for PerPlayer: a human-readable name plus the
/// construction coordinates, e.g. "local sorted blocks @ sorting.cpp:52".
#define CC_LOCALITY_SITE(name) name " @ " __FILE__ ":" CC_LOCALITY_STR(__LINE__)
