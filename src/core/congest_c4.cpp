#include "core/congest_c4.h"

#include <algorithm>

#include "util/math_util.h"

namespace cclique {

CongestC4Result congest_c4_detect(const Graph& g, int bandwidth) {
  const int n = g.num_vertices();
  CongestC4Result result;
  result.max_degree = g.max_degree();
  CongestUnicast net(g, bandwidth);
  const int addr = bits_for(static_cast<std::uint64_t>(std::max(1, n)));

  // Each node streams its sorted neighbor list on every incident edge,
  // addr bits per entry, chunked at b bits per round. All edges progress in
  // lock step, so the stream takes ceil(max_deg * addr / b) rounds.
  const std::size_t stream_bits =
      static_cast<std::size_t>(result.max_degree) * static_cast<std::size_t>(addr);
  const int rounds = static_cast<int>(
      ceil_div(std::max<std::size_t>(stream_bits, 1), static_cast<std::size_t>(bandwidth)));

  // Each node's serialized list, built once and sliced per chunk round.
  std::vector<Message> stream(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    Message& full = stream[static_cast<std::size_t>(v)];
    full.reserve_bits(g.neighbors(v).size() * static_cast<std::size_t>(addr));
    for (int u : g.neighbors(v)) {
      full.push_uint(static_cast<std::uint64_t>(u), addr);
    }
  }

  // received[v][k] accumulates the bits of neighbor k's list.
  std::vector<std::vector<Message>> received(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto& nbrs = g.neighbors(v);
    received[static_cast<std::size_t>(v)].resize(nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      received[static_cast<std::size_t>(v)][k].reserve_bits(
          stream[static_cast<std::size_t>(nbrs[k])].size_bits());
    }
  }

  for (int r = 0; r < rounds; ++r) {
    const std::size_t offset = static_cast<std::size_t>(r) * static_cast<std::size_t>(bandwidth);
    net.round_fill(
        [&](int v, Message* box) {
          const Message& full = stream[static_cast<std::size_t>(v)];
          if (offset >= full.size_bits()) return;
          const std::size_t take =
              std::min<std::size_t>(static_cast<std::size_t>(bandwidth), full.size_bits() - offset);
          for (std::size_t k = 0; k < g.neighbors(v).size(); ++k) {
            box[k].append_slice(full, offset, take);
          }
        },
        [&](int v, const std::vector<Message>& inbox) {
          for (std::size_t k = 0; k < inbox.size(); ++k) {
            received[static_cast<std::size_t>(v)][k].append(inbox[k]);
          }
        });
  }

  // Local detection at every node u: mark[w] = the first neighbor of u that
  // reported w; a second distinct reporter closes the 4-cycle u-v1-w-v2-u.
  bool found = false;
  std::vector<int> mark(static_cast<std::size_t>(n));
  for (int u = 0; u < n && !found; ++u) {
    std::fill(mark.begin(), mark.end(), -1);
    const auto& nbrs = g.neighbors(u);
    for (std::size_t k = 0; k < nbrs.size() && !found; ++k) {
      const int v = nbrs[k];
      const Message& list = received[static_cast<std::size_t>(u)][k];
      const std::size_t entries = list.size_bits() / static_cast<std::size_t>(addr);
      for (std::size_t e = 0; e < entries; ++e) {
        const int w = static_cast<int>(list.read_uint(e * static_cast<std::size_t>(addr), addr));
        if (w == u) continue;
        if (mark[static_cast<std::size_t>(w)] >= 0 &&
            mark[static_cast<std::size_t>(w)] != v) {
          found = true;  // u - mark[w] - w - v - u
          break;
        }
        mark[static_cast<std::size_t>(w)] = v;
      }
    }
  }
  result.detected = found;
  result.stats = net.stats();
  return result;
}

}  // namespace cclique
