#include "core/three_coloring.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "graph/checkers.hpp"
#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/ruling_set.hpp"
#include "util/contracts.hpp"

namespace lad {
namespace {

// Candidate anchors tried per ruling node before the encoder gives up.
constexpr int kMaxCandidateTries = 64;

// One half of a group: {w} or an adjacent pair {x, y}.
using Half = std::vector<int>;

int color1_neighbor_count(const Graph& g, const std::vector<int>& phi, int v) {
  int c = 0;
  for (const int u : g.neighbors(v)) {
    if (phi[u] == 1) c += 1;
  }
  return c;
}

bool share_color1_neighbor(const Graph& g, const std::vector<int>& phi, int a, int b) {
  for (const int u : g.neighbors(a)) {
    if (phi[u] == 1 && g.adjacent(u, b)) return true;
  }
  return false;
}

// Lemma 7.2 selection: within C-distance `radius` of `from`, find either a
// node w with >= 2 color-1 neighbors, or an adjacent (in C) pair {x, y}
// with no common color-1 neighbor. `eligible` filters candidates.
std::optional<Half> select_half(const Graph& g, const std::vector<int>& phi,
                                const NodeMask& mask23, int from, int radius,
                                const std::function<bool(const Half&)>& eligible) {
  const auto near = ball_nodes(g, from, radius, mask23);
  for (const int w : near) {
    if (color1_neighbor_count(g, phi, w) >= 2) {
      Half h = {w};
      if (eligible(h)) return h;
    }
  }
  for (const int x : near) {
    for (const int y : g.neighbors(x)) {
      if (!mask23[y]) continue;
      if (share_color1_neighbor(g, phi, x, y)) continue;
      Half h = {x, y};
      if (eligible(h)) return h;
    }
  }
  return std::nullopt;
}

struct Group {
  Half s, s_prime;
  std::vector<int> all() const {
    std::vector<int> v = s;
    v.insert(v.end(), s_prime.begin(), s_prime.end());
    return v;
  }
};

// Decoder-side node typing: type-1 bits sit on nodes with <= 1 one-bit
// neighbor. Returns per-node: 0 = no bit, 1 = type-1 (color 1), 2 = type-23.
std::vector<int> classify_bits(const Graph& g, const std::vector<char>& bits) {
  std::vector<int> type(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    if (!bits[v]) continue;
    int one_neighbors = 0;
    for (const int u : g.neighbors(v)) one_neighbors += bits[u] ? 1 : 0;
    type[v] = one_neighbors <= 1 ? 1 : 2;
  }
  return type;
}

// The schema's radii, all functions of Δ (which every node knows); encoder
// and decoder derive them alike.
struct ThreeColoringDerived {
  // Radius around a ruling-set node within which candidate group halves are
  // searched: Δ + 2 (the paper's Lemma 7.2 radius is Δ).
  int candidate_radius = 0;
  int group_radius = 0;  // group members lie within this C-distance of r
  int ruling_alpha = 0;  // pairwise group separation
  int reach = 0;         // every large-component node finds a group within this
  // Components of G_{2,3} with diameter above this are "large" and receive
  // parity groups: 2·ruling_alpha (the paper's 4000Δ^9; any value >=
  // ruling_alpha works, with correctness checked by the encoder).
  int large_component_diameter = 0;
};

ThreeColoringDerived derive_three_coloring_radii(const Graph& g) {
  ThreeColoringDerived d;
  const int delta = std::max(1, g.max_degree());
  d.candidate_radius = delta + 2;
  // Anchors are tried within candidate_radius of r, halves within another
  // candidate_radius, plus 1 for pair partners.
  d.group_radius = 2 * d.candidate_radius + 1;
  d.ruling_alpha = 4 * d.group_radius + 4;
  d.reach = d.ruling_alpha + d.group_radius;  // domination + group offset
  d.large_component_diameter = 2 * d.ruling_alpha;
  return d;
}

}  // namespace

std::vector<int> normalize_to_greedy(const Graph& g, std::vector<int> coloring) {
  LAD_CHECK_MSG(is_proper_coloring(g, coloring, 0), "witness is not a proper coloring");
  bool changed = true;
  while (changed) {
    changed = false;
    for (int v = 0; v < g.n(); ++v) {
      std::vector<char> used(static_cast<std::size_t>(coloring[v]) + 1, 0);
      for (const int u : g.neighbors(v)) {
        if (coloring[u] <= coloring[v]) used[coloring[u]] = 1;
      }
      int c = 1;
      while (used[c]) ++c;
      if (c < coloring[v]) {
        coloring[v] = c;
        changed = true;
      }
    }
  }
  LAD_CHECK(is_greedy_coloring(g, coloring));
  return coloring;
}

ThreeColoringEncoding encode_three_coloring_advice(const Graph& g,
                                                   const std::vector<int>& witness) {
  const auto d = derive_three_coloring_radii(g);
  const auto phi = normalize_to_greedy(g, witness);
  LAD_CHECK(is_proper_coloring(g, phi, 3));

  ThreeColoringEncoding enc;
  enc.greedy_phi = phi;
  enc.bits.assign(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    if (phi[v] == 1) enc.bits[v] = 1;
  }

  // Components of G_{2,3}.
  NodeMask mask23(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) mask23[v] = phi[v] >= 2 ? 1 : 0;
  const auto comps = connected_components(g, mask23);

  // Budget: how many group neighbors each color-1 node already has.
  std::vector<int> c1_load(static_cast<std::size_t>(g.n()), 0);
  std::vector<char> in_group(static_cast<std::size_t>(g.n()), 0);

  // A BFS masked by mask23 never leaves the component it starts in, so
  // mask23 scopes every query below to the current component.
  for (int c = 0; c < comps.count(); ++c) {
    const auto& members = comps.members[c];
    if (diameter_at_most(g, members.front(), d.large_component_diameter, mask23)) {
      continue;  // small: no advice
    }

    const auto rc = ruling_set(g, d.ruling_alpha, members, mask23);
    for (const int r : rc) {
      // Eligibility: members must be fresh, keep every adjacent color-1
      // node's load at <= 1, and stay inside the group radius of r.
      const LocalBfs near_r(g, r, d.group_radius, mask23);
      auto fresh = [&](const Half& h, const std::vector<int>& forbidden) {
        for (const int v : h) {
          if (in_group[v] || !near_r.reached(v)) return false;
          for (const int f : forbidden) {
            // Keep halves at G-distance >= 3: no adjacency, no common
            // neighbor of any color.
            if (v == f || g.adjacent(v, f)) return false;
            for (const int u : g.neighbors(v)) {
              if (g.adjacent(u, f)) return false;
            }
          }
          for (const int u : g.neighbors(v)) {
            if (phi[u] == 1 && c1_load[u] >= 1) return false;
          }
        }
        // Within a pair {x, y}: a shared color-1 neighbor is already
        // excluded by the Lemma 7.2 condition.
        return true;
      };

      std::optional<Group> group;
      const auto anchors = ball_nodes(g, r, d.candidate_radius, mask23);
      int tries = 0;
      for (const int v : anchors) {
        if (++tries > kMaxCandidateTries) break;
        auto s = select_half(g, phi, mask23, v, d.candidate_radius,
                             [&](const Half& h) { return fresh(h, {}); });
        if (!s) continue;
        auto s2 = select_half(g, phi, mask23, v, d.candidate_radius,
                              [&](const Half& h) { return fresh(h, *s); });
        if (!s2) continue;
        group = Group{*s, *s2};
        break;
      }
      LAD_CHECK_MSG(group.has_value(),
                    "no parity group found near ruling node " << g.id(r));

      // Write bits per the parity rule.
      const auto all = group->all();
      const int s_min = *std::min_element(all.begin(), all.end(), [&](int a, int b) {
        return g.id(a) < g.id(b);
      });
      const bool s_in_first =
          std::find(group->s.begin(), group->s.end(), s_min) != group->s.end();
      std::vector<int> written;
      if (phi[s_min] == 2) {
        written = s_in_first ? group->s : group->s_prime;
      } else {
        LAD_CHECK(phi[s_min] == 3);
        written = all;
      }
      for (const int v : written) {
        enc.bits[v] = 1;
        in_group[v] = 1;
        for (const int u : g.neighbors(v)) {
          if (phi[u] == 1) ++c1_load[u];
        }
      }
      ++enc.num_groups;
    }
  }

  // Invariant checks the decoder relies on.
  const auto type = classify_bits(g, enc.bits);
  for (int v = 0; v < g.n(); ++v) {
    if (phi[v] == 1) {
      LAD_CHECK_MSG(type[v] == 1, "color-1 node " << g.id(v) << " lost its type-1 bit");
    } else if (in_group[v]) {
      LAD_CHECK_MSG(type[v] == 2, "group member " << g.id(v) << " not typed 23");
    } else {
      LAD_CHECK_MSG(type[v] == 0, "stray bit at " << g.id(v));
    }
  }
  return enc;
}

namespace {

// Shared decode body. With `failed == nullptr` any locally-detected
// inconsistency throws (strict mode). With a non-null `failed`, the failure
// is contained to its natural scope — the component for the canonical
// branch, the single node for the group-parity branch — which stays
// uncolored (0) and is marked in `failed` for the caller's repair pass.
ThreeColoringDecodeResult decode_three_coloring_impl(const Graph& g,
                                                     const std::vector<char>& bits,
                                                     std::vector<char>* failed) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "three-coloring advice has " << bits.size() << " bits for n = " << g.n());
  const auto d = derive_three_coloring_radii(g);
  const auto type = classify_bits(g, bits);

  ThreeColoringDecodeResult res;
  res.coloring.assign(static_cast<std::size_t>(g.n()), 0);
  int rounds = 1;  // classifying bits costs one round

  // The G_{2,3} mask is locally computable: everyone knows every node's type.
  NodeMask mask23(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    if (type[v] == 1) {
      res.coloring[v] = 1;
    } else {
      mask23[v] = 1;
    }
  }

  // Runs `body`; in tolerant mode a ContractViolation is contained to
  // `scope`, which is left uncolored and marked failed.
  const auto contain = [&](const std::vector<int>& scope, auto&& body) {
    if (failed == nullptr) {
      body();
      return;
    }
    try {
      body();
    } catch (const ContractViolation&) {
      for (const int v : scope) {
        res.coloring[v] = 0;
        (*failed)[static_cast<std::size_t>(v)] = 1;
      }
    }
  };

  // As in the encoder, mask23 scopes each BFS to its component.
  const auto comps = connected_components(g, mask23);
  const int collect_radius = 2 * d.group_radius;
  for (int c = 0; c < comps.count(); ++c) {
    const auto& members = comps.members[c];

    // Does this component contain any type-23 bit?
    std::vector<int> group_nodes;
    for (const int v : members) {
      if (type[v] == 2) group_nodes.push_back(v);
    }

    if (group_nodes.empty()) {
      // Small component: canonical 2-coloring, side of the smallest ID gets
      // color 2. Each node gathers the whole component.
      contain(members, [&] {
        const int root = *std::min_element(members.begin(), members.end(), [&](int a, int b) {
          return g.id(a) < g.id(b);
        });
        const LocalBfs bfs(g, root, -1, mask23);
        bool bipartite = true;  // iff no edge joins two nodes of one BFS layer
        for (const int v : members) {
          LAD_CHECK_MSG(bfs.reached(v), "component disconnected under mask");
          res.coloring[v] = bfs.dist(v) % 2 == 0 ? 2 : 3;
          for (const int u : g.neighbors(v)) {
            if (mask23[u] && bfs.dist(u) == bfs.dist(v)) bipartite = false;
          }
        }
        LAD_CHECK_MSG(bipartite, "advice inconsistent: G_{2,3} not bipartite");
        rounds = std::max(rounds, 2 * bfs.depth() + 1);
      });
      continue;
    }

    // Large component: every node finds the nearest group, counts its
    // connected components, and 2-colors by parity from the group's
    // smallest-ID visible node s.
    const LocalBfs gbfs(g, group_nodes, -1, mask23);
    for (const int v : members) {
      contain({v}, [&] {
      const int gdist_v = gbfs.dist(v);
      LAD_CHECK_MSG(gdist_v != kUnreachable && gdist_v <= d.reach + collect_radius,
                    "node " << g.id(v) << " cannot reach a parity group");
      // Nearest group node t0.
      int t0 = -1;
      {
        int cur = v;
        while (type[cur] != 2) {
          for (const int u : g.neighbors(cur)) {
            if (mask23[u] && gbfs.dist(u) == gbfs.dist(cur) - 1) {
              cur = u;
              break;
            }
          }
        }
        t0 = cur;
      }
      // Collect the group around t0 and count its components; both the
      // count and the smallest ID ignore the order the ball is visited in.
      int s = -1;
      int comps_in_group = 0;
      {
        const LocalBfs near(g, t0, collect_radius, mask23);
        std::vector<int> grp;
        NodeMap in_grp(g);  // 1 = group member, 2 = member already visited
        for (const int u : near.nodes()) {
          if (type[u] == 2) {
            grp.push_back(u);
            in_grp.set(u, 1);
          }
        }
        // Component count within grp (groups have halves of size 1 or 2).
        for (const int u : grp) {
          if (in_grp.get(u) == 2) continue;
          ++comps_in_group;
          std::vector<int> stack = {u};
          in_grp.set(u, 2);
          while (!stack.empty()) {
            const int x = stack.back();
            stack.pop_back();
            for (const int y : g.neighbors(x)) {
              if (in_grp.get(y) == 1) {
                in_grp.set(y, 2);
                stack.push_back(y);
              }
            }
          }
        }
        LAD_CHECK_MSG(comps_in_group == 1 || comps_in_group == 2,
                      "malformed parity group near " << g.id(t0));
        s = *std::min_element(grp.begin(), grp.end(), [&](int a, int b) {
          return g.id(a) < g.id(b);
        });
      }
      const int phi_s = comps_in_group == 1 ? 2 : 3;
      const int dvs = distance(g, v, s, mask23);
      LAD_CHECK(dvs != kUnreachable);
      res.coloring[v] = dvs % 2 == 0 ? phi_s : 5 - phi_s;
      rounds = std::max(rounds, gdist_v + 2 * collect_radius + 1);
      });
    }
  }
  res.rounds = rounds;
  return res;
}

}  // namespace

ThreeColoringDecodeResult decode_three_coloring(const Graph& g, const std::vector<char>& bits) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "3-coloring schema is one bit per node");
  return decode_three_coloring_impl(g, bits, nullptr);
}

ThreeColoringDecodeResult decode_three_coloring_tolerant(const Graph& g,
                                                         const std::vector<char>& bits,
                                                         std::vector<char>& failed) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "3-coloring schema is one bit per node");
  failed.assign(static_cast<std::size_t>(g.n()), 0);
  return decode_three_coloring_impl(g, bits, &failed);
}

}  // namespace lad
