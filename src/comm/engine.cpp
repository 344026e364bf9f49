#include "comm/engine.h"

#include <algorithm>

#include "util/math_util.h"

namespace cclique {

EngineCore::EngineCore(int n, int bandwidth) : n_(n), bandwidth_(bandwidth) {
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be at least 1 bit");
  reset_stats();
}

void EngineCore::set_cut(std::vector<int> side) {
  CC_REQUIRE(static_cast<int>(side.size()) == n_, "cut assignment size mismatch");
  for (int s : side) CC_REQUIRE(s == 0 || s == 1, "cut side must be 0 or 1");
  cut_side_ = std::move(side);
}

void EngineCore::reset_stats() {
  stats_ = CommStats{};
  stats_.per_player_sent_bits.assign(static_cast<std::size_t>(n_), 0);
  stats_.per_player_recv_bits.assign(static_cast<std::size_t>(n_), 0);
}

namespace {

/// What one `bits`-bit stream from `sender` in b-bit chunks commits over all
/// its rounds, receives aside (an empty stream adds nothing).
void commit_stream(CommStats& s, std::size_t sender, std::uint64_t bits, std::uint64_t b,
                   bool crosses_cut) {
  s.total_bits += bits;
  s.total_messages += ceil_div(bits, b);
  s.max_edge_bits_in_round = std::max(s.max_edge_bits_in_round, std::min(bits, b));
  s.per_player_sent_bits[sender] += bits;
  if (crosses_cut) s.cut_bits += bits;
}

}  // namespace

void EngineCore::charge_stream(const LengthMatrix& len, int rounds) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::uint64_t b = static_cast<std::uint64_t>(bandwidth_);
  CC_REQUIRE(rounds >= 0 && len.size() == n, "stream lengths must be n x n");
  for (std::size_t i = 0; i < n; ++i) {
    CC_REQUIRE(len[i].size() == n && len[i][i] == 0,
               "stream lengths must be n x n with an empty diagonal");
    for (const std::size_t bits : len[i]) CC_MODEL(bits <= rounds * b, "stream exceeds its rounds");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      commit_stream(stats_, i, len[i][j], b, has_cut() && cut_side_[i] != cut_side_[j]);
      stats_.per_player_recv_bits[j] += len[i][j];
    }
  }
  stats_.rounds += rounds;
}

void EngineCore::charge_board(const std::vector<std::size_t>& len, int rounds) {
  const std::uint64_t b = static_cast<std::uint64_t>(bandwidth_);
  CC_REQUIRE(rounds >= 0 && len.size() == static_cast<std::size_t>(n_),
             "one board write per player");
  std::uint64_t written = 0;
  for (const std::size_t bits : len) {
    CC_MODEL(bits <= rounds * b, "board write exceeds its rounds");
    written += bits;
  }
  // Every written bit crosses the network (and a registered cut) once and
  // reaches the n-1 other players.
  for (std::size_t i = 0; i < len.size(); ++i) {
    commit_stream(stats_, i, len[i], b, has_cut());
    stats_.per_player_recv_bits[i] += written - len[i];
  }
  stats_.rounds += rounds;
}

}  // namespace cclique
