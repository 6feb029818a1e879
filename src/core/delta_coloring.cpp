#include "core/delta_coloring.hpp"

#include <algorithm>
#include <map>

#include "advice/uniform.hpp"
#include "baselines/linial.hpp"
#include "core/cluster_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/distance.hpp"
#include "lcl/problems.hpp"
#include "lcl/solver.hpp"
#include "util/contracts.hpp"

namespace lad {
namespace {

constexpr int kSchemaCluster = 0;

ClusterColoringParams stage1_params(const DeltaColoringParams& params) {
  ClusterColoringParams cc;
  cc.cluster_spacing = params.cluster_spacing;
  cc.schema_id = kSchemaCluster;
  return cc;
}

// Stages 1-2, shared verbatim by encoder and decoder: advice -> O(Δ^2)
// coloring (Lemma 6.3 module) -> Δ+1 colors by class iteration.
std::pair<std::vector<int>, int> delta_plus_one_stage(const Graph& g, const VarAdvice& advice,
                                                      const DeltaColoringParams& params) {
  const int delta = std::max(1, g.max_degree());
  auto stage1 = decode_cluster_coloring(g, advice, stage1_params(params));
  auto fin = reduce_to_k_by_classes(g, std::move(stage1.coloring), stage1.num_colors, delta + 1);
  return {std::move(fin.colors), stage1.rounds + fin.rounds};
}

// Stage 2.5 (advice-free): shrink the uncolored class Δ+1 by local fixes.
// Per pass, every uncolored node with no smaller-ID uncolored node within
// distance 6 (fix regions have influence radius <= 3, so they stay
// disjoint and each pass is one parallel LOCAL round bundle) takes a free
// color directly, recolors one neighbor, or recolors a neighbor's neighbor
// first (depth 2). Deterministic, shared by encoder and decoder.
int local_fix_uncolored(const Graph& g, int delta, std::vector<int>& psi, int passes) {
  int rounds = 0;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<int> uncolored;
    for (int v = 0; v < g.n(); ++v) {
      if (psi[v] == delta + 1) uncolored.push_back(v);
    }
    if (uncolored.empty()) break;
    rounds += 7;
    std::vector<char> is_unc(static_cast<std::size_t>(g.n()), 0);
    for (const int u : uncolored) is_unc[u] = 1;
    for (const int u : uncolored) {
      bool eligible = true;
      const LocalBfs near(g, u, 6);
      for (const int w : near.nodes()) {
        if (w != u && is_unc[w] && g.id(w) < g.id(u)) eligible = false;
      }
      if (!eligible) continue;
      auto used_by_neighbors = [&](int v) {
        std::vector<char> used(static_cast<std::size_t>(delta) + 2, 0);
        for (const int w : g.neighbors(v)) {
          if (psi[w] <= delta) used[psi[w]] = 1;
        }
        return used;
      };
      const auto used = used_by_neighbors(u);
      int free_color = 0;
      for (int c = 1; c <= delta && !free_color; ++c) {
        if (!used[c]) free_color = c;
      }
      if (free_color) {
        psi[u] = free_color;
        continue;
      }
      // All Δ colors blocked: move aside a neighbor whose color appears
      // exactly once around u (so the move really frees it).
      std::vector<int> count(static_cast<std::size_t>(delta) + 2, 0);
      for (const int w : g.neighbors(u)) {
        if (psi[w] <= delta) ++count[psi[w]];
      }
      bool fixed = false;
      for (const int w : g.neighbors(u)) {
        if (psi[w] > delta || count[psi[w]] != 1) continue;
        const auto wused = used_by_neighbors(w);
        int alt = 0;
        for (int c = 1; c <= delta && !alt; ++c) {
          if (c != psi[w] && !wused[c]) alt = c;
        }
        if (alt) {
          const int freed = psi[w];
          psi[w] = alt;
          psi[u] = freed;
          fixed = true;
          break;
        }
      }
      if (fixed) continue;
      // Depth 2: free a neighbor w by first moving one of w's neighbors z
      // (z's color unique around w, z itself has an alternative).
      for (const int w : g.neighbors(u)) {
        if (fixed) break;
        if (psi[w] > delta || count[psi[w]] != 1) continue;
        std::vector<int> wcount(static_cast<std::size_t>(delta) + 2, 0);
        for (const int z : g.neighbors(w)) {
          if (psi[z] <= delta) ++wcount[psi[z]];
        }
        for (const int z : g.neighbors(w)) {
          if (z == u || psi[z] > delta || wcount[psi[z]] != 1) continue;
          const auto zused = used_by_neighbors(z);
          int zalt = 0;
          for (int c = 1; c <= delta && !zalt; ++c) {
            if (c != psi[z] && c != psi[w] && !zused[c]) zalt = c;
          }
          if (!zalt) continue;
          const int z_old = psi[z];
          psi[z] = zalt;
          const auto wused2 = used_by_neighbors(w);
          int walt = 0;
          for (int c = 1; c <= delta && !walt; ++c) {
            if (c != psi[w] && !wused2[c]) walt = c;
          }
          if (walt) {
            const int freed = psi[w];
            psi[w] = walt;
            psi[u] = freed;
            fixed = true;
            break;
          }
          psi[z] = z_old;  // roll back
        }
      }
    }
  }
  return rounds;
}

// Stage 3 (shared): repair the Δ+1 class in pairwise-separated regions by
// deterministic ball solves. Both encoder and decoder run this identically,
// so for locally repairable instances the repair carries *zero* advice
// bits; the paper's relay-path advice is only needed for instances whose
// repairs cannot be completed in any f(Δ) radius (see DESIGN.md §2).
// Returns the rounds charged; throws if the radius budget is exhausted.
int repair_uncolored(const Graph& g, int delta, std::vector<int>& psi,
                     const DeltaColoringParams& params, int* num_repairs) {
  std::vector<int> uncolored;
  std::vector<char> is_unc(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    if (psi[v] == delta + 1) {
      uncolored.push_back(v);
      is_unc[static_cast<std::size_t>(v)] = 1;
    }
  }
  if (num_repairs != nullptr) *num_repairs = 0;
  if (uncolored.empty()) return 0;
  // Pinned labels: psi everywhere. Each group's solve frees its own region,
  // and the solved labels are copied out and put back to psi after it.
  Labeling lab = Labeling::empty(g);
  lab.node_labels = psi;

  const int cap =
      params.max_repair_radius > 0 ? params.max_repair_radius : delta_repair_cap(delta);
  for (int radius = params.repair_radius; radius <= cap + 1; ++radius) {
    LAD_CHECK_MSG(radius <= cap,
                  "Δ-coloring repair failed up to max_repair_radius; "
                  "increase the budget or use a roomier instance");
    // Group uncolored nodes whose radius-R regions could interact; each
    // group is repaired as one region.
    const int join = 2 * radius + 3;
    std::vector<int> group_of(static_cast<std::size_t>(g.n()), -1);
    std::vector<std::vector<int>> groups;
    for (const int u : uncolored) {
      if (group_of[u] != -1) continue;
      const int gi = static_cast<int>(groups.size());
      groups.emplace_back();
      std::vector<int> stack = {u};
      group_of[u] = gi;
      while (!stack.empty()) {
        const int x = stack.back();
        stack.pop_back();
        groups[static_cast<std::size_t>(gi)].push_back(x);
        const LocalBfs near(g, x, join);
        std::vector<int> joined;  // ascending, as a scan of `uncolored` meets them
        for (const int y : near.nodes()) {
          if (is_unc[static_cast<std::size_t>(y)] && group_of[y] == -1) joined.push_back(y);
        }
        std::sort(joined.begin(), joined.end());
        for (const int y : joined) {
          group_of[y] = gi;
          stack.push_back(y);
        }
      }
    }

    VertexColoringLcl lcl(delta);
    bool all_ok = true;
    std::vector<int> patched = psi;
    for (std::size_t gi = 0; gi < groups.size() && all_ok; ++gi) {
      std::vector<int> region;
      for (const int u : groups[gi]) {
        const LocalBfs near(g, u, radius);
        region.insert(region.end(), near.nodes().begin(), near.nodes().end());
      }
      std::sort(region.begin(), region.end());
      region.erase(std::unique(region.begin(), region.end()), region.end());
      std::vector<int> checks = region;
      for (const int w : region) {
        for (const int x : g.neighbors(w)) checks.push_back(x);
      }
      std::sort(checks.begin(), checks.end());
      checks.erase(std::unique(checks.begin(), checks.end()), checks.end());
      if (!solve_lcl(g, lcl, lab, region, {}, checks, 2'000'000)) {
        all_ok = false;
        break;
      }
      for (const int w : region) {
        patched[w] = lab.node_labels[w];
        lab.node_labels[w] = psi[w];
      }
    }
    if (!all_ok) continue;
    psi = std::move(patched);
    if (num_repairs != nullptr) *num_repairs = static_cast<int>(groups.size());
    return 2 * radius + 3;
  }
  throw ContractViolation("unreachable");
}

}  // namespace

int delta_repair_cap(int max_degree) { return max_degree <= 2 ? 20 : 6; }

DeltaColoringEncoding encode_delta_coloring_advice(const Graph& g,
                                                   const std::vector<int>& witness,
                                                   const DeltaColoringParams& params) {
  const int delta = std::max(1, g.max_degree());
  LAD_CHECK_MSG(is_proper_coloring(g, witness, delta), "witness is not a proper Δ-coloring");

  DeltaColoringEncoding enc;

  // Stage 1 (Lemma 6.3 schema): cluster colors at cluster centers.
  const auto cc = encode_cluster_coloring_advice(g, stage1_params(params));
  enc.advice = cc.advice;
  enc.num_clusters = cc.num_clusters;

  // Stages 2-3 are deterministic given the advice; the encoder simulates
  // them to confirm feasibility and count repairs.
  auto [psi, stage_rounds] = delta_plus_one_stage(g, enc.advice, params);
  (void)stage_rounds;
  local_fix_uncolored(g, delta, psi, params.local_fix_passes);
  repair_uncolored(g, delta, psi, params, &enc.num_repairs);
  LAD_CHECK(is_proper_coloring(g, psi, delta));

  if (params.uniform_one_bit) {
    auto uni = encode_var_advice_one_bit(g, enc.advice);
    enc.uniform_bits = std::move(uni.bits);
    enc.uniform_max_payload_bits = uni.max_payload_bits;
  }
  return enc;
}

DeltaColoringDecodeResult decode_delta_coloring(const Graph& g, const VarAdvice& advice,
                                                const DeltaColoringParams& params) {
  LAD_CHECK_MSG(advice.empty() ||
                    (advice.begin()->first >= 0 && advice.rbegin()->first < g.n()),
                "delta-coloring advice keyed by a node outside [0, n)");
  const int delta = std::max(1, g.max_degree());
  auto [psi, rounds] = delta_plus_one_stage(g, advice, params);
  rounds += local_fix_uncolored(g, delta, psi, params.local_fix_passes);
  rounds += repair_uncolored(g, delta, psi, params, nullptr);
  DeltaColoringDecodeResult res;
  res.coloring = std::move(psi);
  res.rounds = rounds;
  return res;
}

DeltaColoringDecodeResult decode_delta_coloring_one_bit(const Graph& g,
                                                        const std::vector<char>& bits,
                                                        int max_payload_bits,
                                                        const DeltaColoringParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "one-bit advice must carry exactly one bit per node");
  LAD_CHECK(max_payload_bits >= 0);
  const auto advice = decode_var_advice_one_bit(g, bits, max_payload_bits);
  auto res = decode_delta_coloring(g, advice, params);
  res.rounds += max_encoded_path_length(max_payload_bits) + 2;
  return res;
}

}  // namespace lad
