#include "core/subexp_lcl.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/distance_coloring.hpp"
#include "lcl/solver.hpp"
#include "util/contracts.hpp"

namespace lad {
namespace {

constexpr int kPreamble[8] = {1, 1, 1, 1, 0, 1, 1, 0};
// The paper's r: the cluster margin beyond the Lemma 4.3 radius.
constexpr int kGrowthR = 2;
// Step budget of every solve_lcl call (global witness, cluster completions).
constexpr std::int64_t kSolverBudget = 50'000'000;

int label_width(int k) {
  if (k <= 1) return 0;
  int w = 0;
  int v = 1;
  while (v < k) {
    v *= 2;
    ++w;
  }
  return w;
}

// Binary code of a phase color (MSB first, no leading zeros).
std::vector<int> phase_code_bits(int color) {
  std::vector<int> bits;
  for (int c = color; c > 0; c >>= 1) bits.push_back(c & 1);
  std::reverse(bits.begin(), bits.end());
  return bits;
}

// B'' = preamble · map(0 -> 110, 1 -> 1110) · 0.
std::vector<int> expand_phase_code(int color) {
  std::vector<int> out(std::begin(kPreamble), std::end(kPreamble));
  for (const int b : phase_code_bits(color)) {
    if (b) {
      out.insert(out.end(), {1, 1, 1, 0});
    } else {
      out.insert(out.end(), {1, 1, 0});
    }
  }
  out.push_back(0);
  return out;
}

struct Cluster {
  int center = 0;
  int color = 0;
  int alpha = 0;
  std::vector<int> members;  // N_<=alpha+r in G_i, sorted by index
  std::vector<int> n_alpha;  // N_<=alpha in G_i, sorted by index

  bool operator==(const Cluster& o) const {
    return center == o.center && color == o.color && alpha == o.alpha && members == o.members &&
           n_alpha == o.n_alpha;
  }
};

// Lemma 4.3: pick α in [x, 2x] with the best interior-to-border ratio,
// from the center's residual BFS of radius 2x + r.
int lemma3_alpha(const LocalBfs& ball, int x, int r) {
  std::vector<int> layer(static_cast<std::size_t>(2 * x + r) + 1, 0);
  for (const int u : ball.nodes()) ++layer[static_cast<std::size_t>(ball.dist(u))];
  std::vector<long long> cum(layer.size());
  long long acc = 0;
  for (std::size_t j = 0; j < layer.size(); ++j) {
    acc += layer[j];
    cum[j] = acc;
  }
  int best_alpha = x;
  double best_ratio = -1.0;
  for (int a = x; a <= 2 * x; ++a) {
    const double border = std::max(1, layer[static_cast<std::size_t>(a + r)]);
    const double ratio = static_cast<double>(cum[static_cast<std::size_t>(a)]) / border;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_alpha = a;
    }
  }
  return best_alpha;
}

// The cluster around `ball`'s center: Lemma 4.3's α, then N_<=α and
// N_<=α+r in the residual graph, sorted by index.
void carve_cluster(const LocalBfs& ball, int x, int r, Cluster& c) {
  c.alpha = lemma3_alpha(ball, x, r);
  for (const int u : ball.nodes()) {
    if (ball.dist(u) <= c.alpha) c.n_alpha.push_back(u);
    if (ball.dist(u) <= c.alpha + r) c.members.push_back(u);
  }
  std::sort(c.n_alpha.begin(), c.n_alpha.end());
  std::sort(c.members.begin(), c.members.end());
}

// A BFS path (p_0, ..., p_{y-1}) inside the mask with dist(v, p_j) = j,
// ending at the smallest-index node at distance y - 1 from the center v of
// `ball` (a masked BFS of radius >= y - 1, so every node it reached is in
// the mask).
std::vector<int> path_of_length(const Graph& g, const LocalBfs& ball, int y) {
  int target = -1;
  for (const int u : ball.nodes()) {
    if (ball.dist(u) == y - 1 && (target < 0 || u < target)) target = u;
  }
  LAD_CHECK_MSG(target >= 0, "no node at distance " << y - 1 << " from a cluster center");
  std::vector<int> path = {target};
  for (int cur = target; ball.dist(cur) > 0;) {
    for (const int w : g.neighbors(cur)) {
      if (ball.dist(w) == ball.dist(cur) - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  LAD_CHECK(static_cast<int>(path.size()) == y);
  return path;
}

// Decoder-side candidate test: does v look like a center of phase color c
// in the residual graph `mask`? Returns the parsed color.
std::optional<int> parse_center(const Graph& g, const NodeMask& mask,
                                const std::vector<char>& bitp, int v,
                                const SubexpLclParams& p) {
  if (!bitp[v]) return std::nullopt;
  const int x = p.x;
  const int y = x / 2;
  const LocalBfs ball(g, v, 2 * x, mask);
  if (ball.depth() < 2 * x) return std::nullopt;  // no residual node at distance 2x

  // layer_node[j]: unique marked node at distance j (-1 none, -2 several).
  std::vector<int> layer_node(static_cast<std::size_t>(x) + 1, -1);
  for (const int u : ball.nodes()) {
    if (ball.dist(u) > x || !bitp[u]) continue;
    auto& slot = layer_node[static_cast<std::size_t>(ball.dist(u))];
    slot = slot == -1 ? u : -2;
  }
  auto bit_at = [&](int j) -> int {
    if (j > x) return 0;
    if (layer_node[static_cast<std::size_t>(j)] == -2) return -1;
    return layer_node[static_cast<std::size_t>(j)] >= 0 ? 1 : 0;
  };
  // No marked nodes beyond the path zone.
  for (int j = y + 1; j <= x; ++j) {
    if (bit_at(j) != 0) return std::nullopt;
  }
  for (int j = 0; j < 8; ++j) {
    if (bit_at(j) != kPreamble[j]) return std::nullopt;
  }
  // Adjacency chain where consecutive layers are both marked.
  auto chained = [&](int j) {
    const int a = layer_node[static_cast<std::size_t>(j)];
    const int b = layer_node[static_cast<std::size_t>(j + 1)];
    return a >= 0 && b >= 0 && g.adjacent(a, b);
  };
  if (!(chained(0) && chained(1) && chained(2) && chained(5))) return std::nullopt;

  // Parse (110 | 1110)* 0.
  std::vector<int> code;
  int j = 8;
  while (true) {
    if (j > y) return std::nullopt;
    const int b0 = bit_at(j);
    if (b0 == -1) return std::nullopt;
    if (b0 == 0) break;
    if (bit_at(j + 1) != 1 || !chained(j)) return std::nullopt;
    if (bit_at(j + 2) == 0) {
      code.push_back(0);
      j += 3;
    } else if (bit_at(j + 2) == 1 && bit_at(j + 3) == 0 && chained(j + 1)) {
      code.push_back(1);
      j += 4;
    } else {
      return std::nullopt;
    }
  }
  // Everything after the terminator inside the path zone must be clear.
  for (int k = j; k <= y; ++k) {
    if (bit_at(k) != 0) return std::nullopt;
  }
  if (code.empty()) return std::nullopt;
  int color = 0;
  for (const int b : code) color = 2 * color + b;
  return color >= 1 ? std::optional<int>(color) : std::nullopt;
}

// The phase loop shared by the decoder and the encoder's verification pass:
// recover all clusters from the non-isolated bits.
std::vector<Cluster> recover_clusters(const Graph& g, const std::vector<char>& bitp,
                                      const SubexpLclParams& p, int max_colors) {
  std::vector<Cluster> clusters;
  NodeMask unassigned(static_cast<std::size_t>(g.n()), 1);
  // parse_center depends only on the radius-2x residual ball of v, so its
  // result is memoized and recomputed, at the start of a phase, only for the
  // dirty candidates: those near a cluster carved out of the residual graph
  // since their last parse. Parsed candidates wait in the bucket of their
  // color, so a phase visits only its own bucket.
  std::vector<char> dirty(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> dirty_list;
  for (int v = 0; v < g.n(); ++v) {
    if (bitp[v]) {
      dirty[v] = 1;
      dirty_list.push_back(v);
    }
  }
  std::vector<int> memo(static_cast<std::size_t>(g.n()), 0);
  std::vector<std::vector<int>> bucket(static_cast<std::size_t>(max_colors) + 1);
  for (int color = 1; color <= max_colors; ++color) {
    for (const int v : dirty_list) {
      if (!unassigned[v]) continue;
      const auto parsed = parse_center(g, unassigned, bitp, v, p);
      memo[v] = parsed ? *parsed : 0;
      dirty[v] = 0;
      if (memo[v] >= color && memo[v] <= max_colors) {
        bucket[static_cast<std::size_t>(memo[v])].push_back(v);
      }
    }
    dirty_list.clear();
    auto& candidates = bucket[static_cast<std::size_t>(color)];
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    std::vector<Cluster> found;
    for (const int v : candidates) {
      if (!unassigned[v] || memo[v] != color) continue;
      Cluster c;
      c.center = v;
      c.color = color;
      carve_cluster(LocalBfs(g, v, 2 * p.x + kGrowthR, unassigned), p.x, kGrowthR, c);
      found.push_back(std::move(c));
    }
    std::vector<int>().swap(candidates);
    for (const auto& c : found) {
      for (const int u : c.members) unassigned[u] = 0;
      // Residual balls of nodes within 2x of the carved cluster changed.
      const LocalBfs near(g, c.center, 4 * p.x + kGrowthR + 1);
      for (const int u : near.nodes()) {
        if (bitp[u] && unassigned[u] && !dirty[u]) {
          dirty[u] = 1;
          dirty_list.push_back(u);
        }
      }
    }
    for (auto& c : found) clusters.push_back(std::move(c));
  }
  return clusters;
}

// Ring S_v: cluster members within G-distance `margin` of any non-member.
// The margin is 2*r̄ (a strengthening of the paper's r̄ that makes all
// region completions strictly independent: no radius-r̄ ball can touch two
// different free regions — see the header notes).
std::vector<int> ring_of(const Graph& g, const std::vector<int>& members, int rbar) {
  std::vector<int> sources;
  {
    NodeMap in(g);
    for (const int v : members) in.insert(v);
    for (const int v : members) {
      for (const int u : g.neighbors(v)) {
        if (!in.contains(u)) sources.push_back(u);
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::vector<int> ring;
  if (sources.empty()) return ring;
  // Sources are outside nodes at distance 0, so a member is reached exactly
  // when dist_G(u, outside) <= rbar.
  const LocalBfs near_outside(g, sources, rbar);
  for (const int v : members) {
    if (near_outside.reached(v)) ring.push_back(v);
  }
  return ring;
}

// The interior slots available for the solution encoding: nodes of
// N_<=alpha that neither carry a clustering bit nor neighbor one, greedily
// thinned to an independent set (ID order).
std::vector<int> solution_slots(const Graph& g, const Cluster& c, const std::vector<char>& bitp) {
  std::vector<int> z;
  for (const int u : c.n_alpha) {
    if (bitp[u]) continue;
    bool near_marked = false;
    for (const int w : g.neighbors(u)) near_marked = near_marked || bitp[w];
    if (!near_marked) z.push_back(u);
  }
  std::sort(z.begin(), z.end(), [&](int a, int b) { return g.id(a) < g.id(b); });
  std::vector<int> slots;
  NodeMap blocked(g);
  for (const int u : z) {
    if (blocked.contains(u)) continue;
    slots.push_back(u);
    for (const int w : g.neighbors(u)) blocked.insert(w);
  }
  return slots;
}

// Bits needed to pin ℓ on the ring: per ring node (ID order), its node
// label then its incident edge labels in port order.
int ring_code_length(const Graph& g, const LclProblem& p, const std::vector<int>& ring) {
  const int wn = label_width(p.num_node_labels());
  const int we = label_width(p.num_edge_labels());
  int len = 0;
  for (const int v : ring) {
    if (p.num_node_labels() > 0) len += std::max(1, wn);
    if (p.num_edge_labels() > 0) len += std::max(1, we) * g.degree(v);
  }
  return len;
}

std::vector<char> ring_code_build(const Graph& g, const LclProblem& p,
                                  const std::vector<int>& ring, const Labeling& ell) {
  const int wn = std::max(1, label_width(p.num_node_labels()));
  const int we = std::max(1, label_width(p.num_edge_labels()));
  std::vector<char> out;
  auto push = [&](int value, int width) {
    for (int i = width - 1; i >= 0; --i) out.push_back((value >> i) & 1);
  };
  std::vector<int> sorted = ring;
  std::sort(sorted.begin(), sorted.end(), [&](int a, int b) { return g.id(a) < g.id(b); });
  for (const int v : sorted) {
    if (p.num_node_labels() > 0) push(ell.node_labels[v] - 1, wn);
    if (p.num_edge_labels() > 0) {
      for (const int e : g.incident_edges(v)) push(ell.edge_labels[e] - 1, we);
    }
  }
  return out;
}

void ring_code_apply(const Graph& g, const LclProblem& p, const std::vector<int>& ring,
                     const std::vector<char>& code, Labeling& into) {
  const int wn = std::max(1, label_width(p.num_node_labels()));
  const int we = std::max(1, label_width(p.num_edge_labels()));
  std::size_t pos = 0;
  auto pull = [&](int width) {
    int v = 0;
    for (int i = 0; i < width; ++i) v = 2 * v + code[pos++];
    return v;
  };
  std::vector<int> sorted = ring;
  std::sort(sorted.begin(), sorted.end(), [&](int a, int b) { return g.id(a) < g.id(b); });
  for (const int v : sorted) {
    if (p.num_node_labels() > 0) into.node_labels[v] = 1 + pull(wn);
    if (p.num_edge_labels() > 0) {
      for (const int e : g.incident_edges(v)) into.edge_labels[e] = 1 + pull(we);
    }
  }
  LAD_CHECK(pos == code.size());
}

std::vector<char> nonisolated_ones(const Graph& g, const std::vector<char>& bits) {
  std::vector<char> bitp(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    if (!bits[v]) continue;
    for (const int u : g.neighbors(v)) {
      if (bits[u]) {
        bitp[v] = 1;
        break;
      }
    }
  }
  return bitp;
}

// The decoder's phase bound.
int resolve_max_colors(const SubexpLclParams& p) {
  return 4 * SubexpLclParams::sep_mult * p.x + 4;
}

}  // namespace

SubexpLclParams subexp_at_scale(SubexpLclParams params, int n) {
  if (params.x == 0) params.x = n < 512 ? 60 : 150;
  return params;
}

SubexpLclEncoding encode_subexp_lcl_advice(const Graph& g, const LclProblem& p,
                                           const SubexpLclParams& requested,
                                           const Labeling* witness) {
  const SubexpLclParams params = subexp_at_scale(requested, g.n());
  const int x = params.x;
  const int y = x / 2;
  const int r = kGrowthR;
  LAD_CHECK(x >= 16);
  const int max_colors = resolve_max_colors(params);

  SubexpLclEncoding enc;
  enc.bits.assign(static_cast<std::size_t>(g.n()), 0);

  // Phase colors: a distance-(sep_mult*x) coloring.
  const auto colors = distance_coloring(g, SubexpLclParams::sep_mult * x);
  enc.num_phase_colors = num_colors(colors);
  LAD_CHECK_MSG(enc.num_phase_colors <= max_colors,
                "distance coloring used " << enc.num_phase_colors << " > max_colors "
                                          << max_colors);

  // Cluster formation + path encoding, phase by phase. Nodes are bucketed
  // by phase color (ascending index within a bucket).
  std::vector<std::vector<int>> by_color(static_cast<std::size_t>(enc.num_phase_colors) + 1);
  for (int v = 0; v < g.n(); ++v) by_color[static_cast<std::size_t>(colors[v])].push_back(v);
  std::vector<Cluster> clusters;
  NodeMask unassigned(static_cast<std::size_t>(g.n()), 1);
  for (int color = 1; color <= enc.num_phase_colors; ++color) {
    std::vector<Cluster> found;
    for (const int v : by_color[static_cast<std::size_t>(color)]) {
      if (!unassigned[v]) continue;
      // One residual BFS of radius 2x + r answers every question below.
      const LocalBfs ball(g, v, 2 * x + r, unassigned);
      if (ball.depth() < 2 * x) continue;  // no residual node at distance 2x
      Cluster c;
      c.center = v;
      c.color = color;
      carve_cluster(ball, x, r, c);

      const auto code = expand_phase_code(color);
      LAD_CHECK_MSG(static_cast<int>(code.size()) <= y,
                    "phase code of color " << color << " needs " << code.size()
                                           << " nodes but the path budget is y = " << y
                                           << "; increase x");
      const auto path = path_of_length(g, ball, y);
      for (std::size_t j = 0; j < code.size(); ++j) {
        if (code[j]) enc.bits[path[j]] = 1;
      }
      found.push_back(std::move(c));
    }
    for (const auto& c : found) {
      for (const int u : c.members) unassigned[u] = 0;
    }
    for (auto& c : found) clusters.push_back(std::move(c));
  }
  enc.num_clusters = static_cast<int>(clusters.size());

  // Unassigned nodes must see their whole residual component within 2x.
  {
    const auto comps = connected_components(g, unassigned);
    for (const auto& members : comps.members) {
      LAD_CHECK_MSG(diameter_at_most(g, members.front(), 2 * x, unassigned),
                    "residual component of diameter > 2x = " << 2 * x);
    }
  }

  // The decoder must recover exactly this clustering from the bits.
  {
    const auto recovered = recover_clusters(g, enc.bits, params, max_colors);
    LAD_CHECK_MSG(recovered.size() == clusters.size(),
                  "decoder recovers " << recovered.size() << " clusters, expected "
                                      << clusters.size());
    auto key = [](const Cluster& c) { return c.center; };
    auto sorted_a = clusters;
    auto sorted_b = recovered;
    std::sort(sorted_a.begin(), sorted_a.end(),
              [&](const Cluster& a, const Cluster& b) { return key(a) < key(b); });
    std::sort(sorted_b.begin(), sorted_b.end(),
              [&](const Cluster& a, const Cluster& b) { return key(a) < key(b); });
    for (std::size_t i = 0; i < sorted_a.size(); ++i) {
      LAD_CHECK_MSG(sorted_a[i] == sorted_b[i], "cluster recovery mismatch at center "
                                                    << g.id(sorted_a[i].center));
    }
  }

  // A global solution ℓ to pin on the rings.
  Labeling ell;
  if (witness != nullptr) {
    ell = *witness;
  } else {
    auto solved = solve_lcl(g, p, kSolverBudget);
    LAD_CHECK_MSG(solved.has_value(), "LCL " << p.name() << " unsolvable on this graph");
    ell = std::move(*solved);
  }
  LAD_CHECK(is_valid_labeling(g, p, ell));

  // Ring encodings on interior independent sets. The clustering bits are
  // exactly the non-isolated ones at this point.
  const auto bitp = enc.bits;
  for (const auto& c : clusters) {
    const auto ring = ring_of(g, c.members, 2 * p.radius());
    const auto code = ring_code_build(g, p, ring, ell);
    const auto slots = solution_slots(g, c, bitp);
    LAD_CHECK_MSG(code.size() <= slots.size(),
                  "cluster at " << g.id(c.center) << " has " << slots.size()
                                << " slots for a " << code.size()
                                << "-bit ring code; increase x");
    for (std::size_t j = 0; j < code.size(); ++j) {
      if (code[j]) enc.bits[slots[j]] = 1;
    }
  }

  // Final sanity: the non-isolated 1s are exactly the clustering bits.
  LAD_CHECK_MSG(nonisolated_ones(g, enc.bits) == bitp,
                "solution bits merged with clustering bits");
  return enc;
}

namespace {

// Shared decode body. With `failed == nullptr` any locally-detected
// inconsistency throws (strict mode). With a non-null `failed`, failures
// are contained to their natural scope — the cluster whose ring pin or
// interior completion went wrong, or the residual region — whose nodes
// stay unlabeled (-1) and are marked for the caller's repair pass.
SubexpLclDecodeResult decode_subexp_lcl_impl(const Graph& g, const LclProblem& p,
                                             const std::vector<char>& bits,
                                             const SubexpLclParams& requested,
                                             std::vector<char>* failed) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "subexp advice has " << bits.size() << " bits for n = " << g.n());
  const SubexpLclParams params = subexp_at_scale(requested, g.n());
  const int x = params.x;
  const int r = kGrowthR;
  const int rbar = p.radius();
  const int max_colors = resolve_max_colors(params);

  const auto bitp = nonisolated_ones(g, bits);
  const auto clusters = recover_clusters(g, bitp, params, max_colors);

  const auto contain = [&](const std::vector<int>& scope, auto&& body) -> bool {
    if (failed == nullptr) {
      body();
      return true;
    }
    try {
      body();
      return true;
    } catch (const ContractViolation&) {
      for (const int v : scope) (*failed)[static_cast<std::size_t>(v)] = 1;
      return false;
    }
  };

  // Pin ℓ on all rings. A cluster whose pin fails is poisoned: without its
  // ring there is no safe boundary to complete against, so its interior is
  // skipped as well.
  Labeling lab = Labeling::empty(g);
  std::vector<char> cluster_poisoned(clusters.size(), 0);
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const auto& c = clusters[ci];
    const bool ok = contain(c.members, [&] {
      const auto ring = ring_of(g, c.members, 2 * rbar);
      const int len = ring_code_length(g, p, ring);
      const auto slots = solution_slots(g, c, bitp);
      LAD_CHECK_MSG(len <= static_cast<int>(slots.size()), "not enough slots while decoding");
      std::vector<char> code(static_cast<std::size_t>(len));
      for (int j = 0; j < len; ++j) code[static_cast<std::size_t>(j)] = bits[slots[j]];
      ring_code_apply(g, p, ring, code, lab);
    });
    if (!ok) cluster_poisoned[ci] = 1;
  }

  // Complete each cluster interior.
  std::vector<char> in_cluster(static_cast<std::size_t>(g.n()), 0);
  for (const auto& c : clusters) {
    for (const int u : c.members) in_cluster[u] = 1;
  }
  auto complete_region = [&](const std::vector<int>& region) {
    std::vector<int> free_nodes, free_edges;
    for (const int v : region) {
      if (p.num_node_labels() > 0 && lab.node_labels[v] == -1) free_nodes.push_back(v);
      if (p.num_edge_labels() > 0) {
        for (const int e : g.incident_edges(v)) {
          if (lab.edge_labels[e] == -1) free_edges.push_back(e);
        }
      }
    }
    std::sort(free_edges.begin(), free_edges.end());
    free_edges.erase(std::unique(free_edges.begin(), free_edges.end()), free_edges.end());
    if (free_nodes.empty() && free_edges.empty()) return;
    // Constraints to enforce: every node whose radius-r̄ ball touches the
    // free region. Thanks to the 2*r̄ ring margin, those balls lie entirely
    // inside region ∪ pinned labels.
    std::vector<int> touched = free_nodes;
    for (const int e : free_edges) {
      touched.push_back(g.edge_u(e));
      touched.push_back(g.edge_v(e));
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::vector<int> check_nodes;
    if (!touched.empty()) {
      const LocalBfs near(g, touched, rbar);
      check_nodes.assign(near.nodes().begin(), near.nodes().end());
      std::sort(check_nodes.begin(), check_nodes.end());
    }
    LAD_CHECK_MSG(solve_lcl(g, p, lab, free_nodes, free_edges, check_nodes,
                            kSolverBudget),
                  "cluster/residual completion infeasible");
  };

  int max_cluster_diam = 0;
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const auto& c = clusters[ci];
    if (!cluster_poisoned[ci]) {
      contain(c.members, [&] { complete_region(c.members); });
    }
    max_cluster_diam = std::max(max_cluster_diam, 2 * (c.alpha + r));
  }

  // Residual nodes, completed as one region (two residual components can
  // share a ring neighbor, whose constraint needs both solved).
  std::vector<int> residual_nodes;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_cluster[v]) residual_nodes.push_back(v);
  }
  contain(residual_nodes, [&] { complete_region(residual_nodes); });

  SubexpLclDecodeResult res;
  res.labeling = std::move(lab);
  res.rounds = max_colors * (2 * x + 2) + max_cluster_diam + 2 * x + rbar + 2;
  return res;
}

}  // namespace

SubexpLclDecodeResult decode_subexp_lcl(const Graph& g, const LclProblem& p,
                                        const std::vector<char>& bits,
                                        const SubexpLclParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "subexp-LCL advice must carry exactly one bit per node");
  return decode_subexp_lcl_impl(g, p, bits, params, nullptr);
}

SubexpLclDecodeResult decode_subexp_lcl_tolerant(const Graph& g, const LclProblem& p,
                                                 const std::vector<char>& bits,
                                                 std::vector<char>& failed,
                                                 const SubexpLclParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "subexp-LCL advice must carry exactly one bit per node");
  failed.assign(static_cast<std::size_t>(g.n()), 0);
  return decode_subexp_lcl_impl(g, p, bits, params, &failed);
}

}  // namespace lad
