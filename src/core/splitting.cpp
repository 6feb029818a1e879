#include "core/splitting.hpp"

#include <algorithm>
#include <deque>

#include "graph/components.hpp"
#include "graph/distance.hpp"

namespace lad {
namespace {

// Components without any marked trail are gathered whole; this bounds the
// depth a gather may reach.
constexpr int kGatherBound = 1000;

}  // namespace

SplittingEncoding encode_splitting_advice(const Graph& g) {
  // Canonical bipartition: in each component, the side containing the
  // smallest-ID node gets color 1. The decoder colors gathered components
  // by the same rule.
  const auto canonical = two_coloring(g, g.nodes_by_id());
  LAD_CHECK_MSG(canonical.has_value(), "splitting requires a bipartite graph");
  const auto& col = *canonical;
  const TrailSchema s = trail_schema(g, {}, 1);
  for (const auto& t : s.trails) LAD_CHECK_MSG(t.closed, "splitting requires even degrees");

  // Payload: the 2-color of the marker's start node (bit 1 <=> color 2).
  auto payload_fn = [&](int t, int start) {
    const int start_node = s.trails[static_cast<std::size_t>(t)].node_at(start);
    BitString b;
    b.append(col[static_cast<std::size_t>(start_node)] == 2);
    return b;
  };
  auto code = encode_trail_marks(g, s.trails, s.marked, payload_fn, 1, s.code);

  SplittingEncoding enc;
  enc.bits = std::move(code.bits);
  enc.num_marked_trails = s.num_marked;
  return enc;
}

SplittingDecodeResult decode_splitting(const Graph& g, const std::vector<char>& bits) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "splitting advice has " << bits.size() << " bits for n = " << g.n());
  const TrailSchema s = trail_schema(g, {}, 1);
  SplittingDecodeResult res;
  res.edge_color.assign(static_cast<std::size_t>(g.m()), 0);
  res.node_color.assign(static_cast<std::size_t>(g.n()), 0);
  Orientation orient(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);

  int rounds = 0;
  for (std::size_t i = 0; i < s.trails.size(); ++i) {
    const Trail& t = s.trails[i];
    const int L = t.length();
    int dir;
    if (!s.marked[i]) {
      dir = canonical_trail_direction(g, t) ? +1 : -1;
      rounds = std::max(rounds, L);
    } else {
      const auto d = decode_trail_mark(t, 0, bits, s.walk_limit);
      LAD_CHECK_MSG(d.has_value(), "no marker decodable on a long trail");
      dir = d->direction;
      rounds = std::max(rounds, s.walk_limit);
      // Color every node of the trail by parity from the marker start.
      LAD_CHECK_MSG(!d->payload.empty(), "splitting marker carries no base-color payload");
      const int base = d->payload.bit(0) ? 2 : 1;
      for (int pos = 0; pos < L; ++pos) {
        const int parity = ((pos - d->marker_start) % 2 + 2) % 2;
        res.node_color[static_cast<std::size_t>(t.node_at(pos))] = parity == 0 ? base : 3 - base;
      }
    }
    orient_trail(g, t, dir, orient);
  }

  std::vector<std::vector<int>> too_deep;
  rounds = std::max(rounds, propagate_splitting_colors(g, res.node_color, s.walk_limit, too_deep));
  LAD_CHECK_MSG(too_deep.empty(), "component without markers exceeds gather bound");

  // Edge colors: an edge takes its tail's node color.
  for (int e = 0; e < g.m(); ++e) {
    const int tail = orient[static_cast<std::size_t>(e)] == EdgeDir::kForward ? g.edge_u(e)
                                                                              : g.edge_v(e);
    res.edge_color[static_cast<std::size_t>(e)] = res.node_color[static_cast<std::size_t>(tail)];
  }
  res.rounds = rounds;
  return res;
}

int propagate_splitting_colors(const Graph& g, std::vector<int>& node_color, int walk_limit,
                               std::vector<std::vector<int>>& too_deep) {
  int rounds = 0;
  const auto comps = connected_components(g);
  for (const auto& members : comps.members) {
    std::vector<int> sources;
    for (const int v : members) {
      if (node_color[static_cast<std::size_t>(v)] != 0) sources.push_back(v);
    }
    if (sources.empty()) {
      const int root = *std::min_element(members.begin(), members.end(), [&](int a, int b) {
        return g.id(a) < g.id(b);
      });
      const LocalBfs bfs(g, root);
      const int diam_bound = bfs.depth();
      for (const int v : members) {
        node_color[static_cast<std::size_t>(v)] = 1 + (bfs.dist(v) % 2);
      }
      if (diam_bound > kGatherBound) too_deep.push_back(members);
      rounds = std::max(rounds, 2 * diam_bound);
      continue;
    }
    const LocalBfs bfs(g, sources);
    for (const int v : members) {
      if (node_color[static_cast<std::size_t>(v)] != 0) continue;
      // Walk back one BFS tree path to the nearest informed node; the color
      // flips once per step (bipartite).
      int cur = v;
      int steps = 0;
      while (node_color[static_cast<std::size_t>(cur)] == 0) {
        for (const int u : g.neighbors(cur)) {
          if (bfs.dist(u) == bfs.dist(cur) - 1) {
            cur = u;
            break;
          }
        }
        ++steps;
      }
      const int base = node_color[static_cast<std::size_t>(cur)];
      node_color[static_cast<std::size_t>(v)] = (steps % 2 == 0) ? base : 3 - base;
      rounds = std::max(rounds, walk_limit + bfs.dist(v));
    }
  }
  return rounds;
}

EdgeColoringResult edge_color_bipartite_regular(const Graph& g) {
  const int delta = g.max_degree();
  LAD_CHECK_MSG(delta >= 1 && (delta & (delta - 1)) == 0, "Δ must be a power of two");
  for (int v = 0; v < g.n(); ++v) {
    LAD_CHECK_MSG(g.degree(v) == delta, "graph must be Δ-regular");
  }
  LAD_CHECK_MSG(is_bipartite(g), "graph must be bipartite");

  EdgeColoringResult res;
  res.edge_color.assign(static_cast<std::size_t>(g.m()), 1);
  res.bits_per_node.assign(static_cast<std::size_t>(g.n()), 0);

  // Work list: subgraphs (edge subsets of g) still of degree > 1, with the
  // color-prefix accumulated so far. Edge colors are the binary strings of
  // red/blue decisions plus one.
  struct Piece {
    std::vector<int> edges;  // parent edge ids
  };
  std::vector<Piece> pieces = {{[&] {
    std::vector<int> all(static_cast<std::size_t>(g.m()));
    for (int e = 0; e < g.m(); ++e) all[static_cast<std::size_t>(e)] = e;
    return all;
  }()}};

  int level_degree = delta;
  while (level_degree > 1) {
    std::vector<Piece> next;
    int level_rounds = 0;
    for (const auto& piece : pieces) {
      // Build the subgraph on the full node set with this edge subset.
      Graph::Builder b;
      for (int v = 0; v < g.n(); ++v) b.add_node(g.id(v));
      for (const int e : piece.edges) b.add_edge(g.edge_u(e), g.edge_v(e));
      Graph sub = std::move(b).build();
      // Map subgraph edges back to parent edge ids.
      std::vector<int> to_parent(static_cast<std::size_t>(sub.m()));
      for (const int e : piece.edges) {
        const int se = sub.edge_between(g.edge_u(e), g.edge_v(e));
        LAD_CHECK(se >= 0);
        to_parent[static_cast<std::size_t>(se)] = e;
      }

      const auto enc = encode_splitting_advice(sub);
      const auto dec = decode_splitting(sub, enc.bits);
      LAD_CHECK(is_splitting(sub, dec.edge_color));
      level_rounds = std::max(level_rounds, dec.rounds);
      for (int v = 0; v < g.n(); ++v) {
        res.bits_per_node[static_cast<std::size_t>(v)] += 1;
      }

      Piece red, blue;
      for (int se = 0; se < sub.m(); ++se) {
        const int pe = to_parent[static_cast<std::size_t>(se)];
        if (dec.edge_color[static_cast<std::size_t>(se)] == 1) {
          red.edges.push_back(pe);
        } else {
          blue.edges.push_back(pe);
          // Blue branch: set the current binary digit of the color.
          res.edge_color[static_cast<std::size_t>(pe)] += level_degree / 2;
        }
      }
      next.push_back(std::move(red));
      next.push_back(std::move(blue));
    }
    pieces = std::move(next);
    level_degree /= 2;
    res.rounds += level_rounds;
    ++res.levels;
  }
  return res;
}

}  // namespace lad
