#include "core/sorting.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "routing/router.h"
#include "util/math_util.h"

namespace cclique {

namespace {

/// Composite tie-broken sort key: (key, source player, local index). The
/// suffix fields are globally distinct, so the composite order is a total
/// order refining the key order — equal keys are spread by global rank
/// instead of collapsing into one bucket.
std::uint64_t composite_key(std::uint32_t key, int source, std::size_t index,
                            int addr, int kbits) {
  return (static_cast<std::uint64_t>(key) << (addr + kbits)) |
         (static_cast<std::uint64_t>(source) << kbits) |
         static_cast<std::uint64_t>(index);
}

std::uint32_t composite_to_key(std::uint64_t ckey, int addr, int kbits) {
  return static_cast<std::uint32_t>(ckey >> (addr + kbits));
}

}  // namespace

SortResult clique_sort(CliqueUnicast& net,
                       const std::vector<std::vector<std::uint32_t>>& inputs) {
  const int n = net.n();
  CC_REQUIRE(static_cast<int>(inputs.size()) == n, "one input block per player");
  const std::size_t k = inputs.empty() ? 0 : inputs[0].size();
  for (const auto& block : inputs) {
    CC_REQUIRE(block.size() == k, "all players must hold equally many keys");
  }
  CC_REQUIRE(k >= 1, "need at least one key per player");
  const int addr = bits_for(static_cast<std::uint64_t>(n));
  const int kbits = bits_for(static_cast<std::uint64_t>(k));
  CC_REQUIRE(addr + kbits <= 32,
             "composite tie-break must fit a 64-bit payload next to the key");
  const int cw = 32 + addr + kbits;  // composite width on the wire
  CC_REQUIRE(net.bandwidth() >= cw,
             "bandwidth must fit one composite sample per message");

  // Phase 0: local sort (free — computation is not charged). Sorting plain
  // keys sorts the composites too: within one block the source is fixed
  // and the local index ascends. The blocks are player-private until phase
  // 2 routes them, so they are ownership-tagged: a callback touching
  // another player's block throws ModelViolation in CCLIQUE_LOCALITY builds.
  locality::PerPlayer<std::vector<std::uint32_t>> local(
      n, CC_LOCALITY_SITE("sorted local key blocks"));
  for (int i = 0; i < n; ++i) {
    local[i] = inputs[static_cast<std::size_t>(i)];
    std::sort(local[i].begin(), local[i].end());
  }

  // Phase 1a: regular samples — player i sends its (j+1)/(n+1) quantile
  // composite to player j (one cw-bit message per edge, 1 chunked exchange).
  const auto sample_index = [&](int j) {
    std::size_t idx = (static_cast<std::size_t>(j) + 1) * k /
                      (static_cast<std::size_t>(n) + 1);
    return idx >= k ? k - 1 : idx;
  };
  locality::PerPlayer<std::vector<std::uint64_t>> column(
      n, CC_LOCALITY_SITE("received sample column"));
  net.round_fill(
      [&](int i, Message* box) {
        for (int j = 0; j < n; ++j) {
          if (j == i) continue;
          const std::size_t idx = sample_index(j);
          box[j].push_uint(composite_key(local[i][idx], i, idx, addr, kbits), cw);
        }
      },
      [&](int j, const std::vector<Message>& inbox) {
        for (int i = 0; i < n; ++i) {
          if (i == j) {
            const std::size_t idx = sample_index(j);
            column[j].push_back(
                composite_key(local[j][idx], j, idx, addr, kbits));
            continue;
          }
          const Message& m = inbox[static_cast<std::size_t>(i)];
          CC_CHECK(!m.empty(), "every player must deliver its regular sample");
          column[j].push_back(m.read_uint(0, cw));
        }
      });

  // Player j's splitter = the rank-proportional element of its sample
  // column (rank (j+1)n/(n+1), i.e. column j contributes the j-th of the n
  // evenly spaced elements of the global sample order). A column median
  // would pin every splitter to the same source coordinate and collapse
  // duplicate-heavy inputs back into one bucket; the proportional rank
  // spreads the splitters across the tie-break dimensions. All-gather them.
  locality::PerPlayer<std::uint64_t> my_splitter(
      n, CC_LOCALITY_SITE("private splitter candidate"));
  for (int j = 0; j < n; ++j) {
    auto& col = column[j];
    std::sort(col.begin(), col.end());
    const std::size_t rank = (static_cast<std::size_t>(j) + 1) * col.size() /
                             (static_cast<std::size_t>(n) + 1);
    my_splitter[j] = col[std::min(rank, col.size() - 1)];
  }
  const std::vector<Message> gathered =
      all_gather(net, cw, [&](int i, Message& out) { out.push_uint(my_splitter[i], cw); });
  std::vector<std::uint64_t> splitters(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    splitters[static_cast<std::size_t>(i)] = gathered[static_cast<std::size_t>(i)].read_uint(0, cw);
  }
  std::sort(splitters.begin(), splitters.end());
  // The last splitter is unused (bucket n-1 is open-ended).
  splitters.pop_back();

  // Phase 2: route every key (as its composite) to its bucket owner.
  RoutingDemand demand;
  demand.payload_bits = cw;
  for (int i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < k; ++t) {
      const std::uint64_t ckey = composite_key(local[i][t], i, t, addr, kbits);
      const int bucket = static_cast<int>(
          std::upper_bound(splitters.begin(), splitters.end(), ckey) -
          splitters.begin());
      demand.messages.push_back(RoutedMessage{i, bucket, ckey});
    }
  }
  RoutingResult bucketed = route_two_phase(net, demand);
  locality::PerPlayer<std::vector<std::uint64_t>> bucket_keys(
      n, CC_LOCALITY_SITE("owned bucket keys"));
  SortResult result;
  result.bucket_loads.assign(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    for (const auto& [src, payload] : bucketed.delivered[static_cast<std::size_t>(j)]) {
      (void)src;
      bucket_keys[j].push_back(payload);
    }
    std::sort(bucket_keys[j].begin(), bucket_keys[j].end());
    result.bucket_loads[static_cast<std::size_t>(j)] = bucket_keys[j].size();
  }

  // Phase 3: all-gather bucket counts; compute exact rank offsets; route
  // each key to its final owner (rank / k).
  const int count_bits = bits_for(static_cast<std::uint64_t>(n) * k + 1);
  const std::vector<Message> counts = all_gather(net, count_bits, [&](int i, Message& out) {
    out.push_uint(bucket_keys[i].size(), count_bits);
  });
  std::vector<std::uint64_t> offset(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    offset[static_cast<std::size_t>(i) + 1] =
        offset[static_cast<std::size_t>(i)] +
        counts[static_cast<std::size_t>(i)].read_uint(0, count_bits);
  }
  CC_CHECK(offset[static_cast<std::size_t>(n)] == static_cast<std::uint64_t>(n) * k,
           "bucket counts must cover all keys");

  RoutingDemand final_demand;
  final_demand.payload_bits = 32;
  for (int i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < bucket_keys[i].size(); ++t) {
      const std::uint64_t rank = offset[static_cast<std::size_t>(i)] + t;
      final_demand.messages.push_back(RoutedMessage{
          i, static_cast<int>(rank / k),
          composite_to_key(bucket_keys[i][t], addr, kbits)});
    }
  }
  RoutingResult placed = route_two_phase(net, final_demand);

  result.blocks.assign(static_cast<std::size_t>(n), {});
  for (int j = 0; j < n; ++j) {
    for (const auto& [src, payload] : placed.delivered[static_cast<std::size_t>(j)]) {
      (void)src;
      result.blocks[static_cast<std::size_t>(j)].push_back(static_cast<std::uint32_t>(payload));
    }
    std::sort(result.blocks[static_cast<std::size_t>(j)].begin(),
              result.blocks[static_cast<std::size_t>(j)].end());
  }
  result.stats = net.stats();
  return result;
}

}  // namespace cclique
