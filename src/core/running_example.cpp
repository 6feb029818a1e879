#include "core/running_example.hpp"

#include <algorithm>
#include <map>

#include "advice/uniform.hpp"
#include "graph/checkers.hpp"
#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/euler.hpp"
#include "graph/ruling_set.hpp"
#include "util/contracts.hpp"

namespace lad {
namespace {

constexpr int kSchemaNodeColor = 0;   // Π_v entries
constexpr int kSchemaOrientation = 1;  // Π_o entries

// Canonical bipartition: per component, the side of the smallest ID is 1.
std::vector<int> canonical_two_coloring(const Graph& g) {
  LAD_CHECK_MSG(is_bipartite(g), "running example requires a bipartite graph");
  const auto comps = connected_components(g);
  std::vector<int> color(static_cast<std::size_t>(g.n()), 0);
  for (const auto& members : comps.members) {
    const int root = *std::min_element(members.begin(), members.end(),
                                       [&](int a, int b) { return g.id(a) < g.id(b); });
    const LocalBfs bfs(g, root);
    for (const int v : members) color[static_cast<std::size_t>(v)] = 1 + (bfs.dist(v) % 2);
  }
  return color;
}

}  // namespace

RunningExampleEncoding encode_running_example(const Graph& g,
                                              const RunningExampleParams& params) {
  for (int v = 0; v < g.n(); ++v) {
    LAD_CHECK_MSG(g.degree(v) % 2 == 0, "running example requires even degrees");
  }
  const auto col = canonical_two_coloring(g);

  RunningExampleEncoding enc;

  // Π_v: one 1-bit color hint on a ruling set.
  for (const int a : ruling_set(g, params.color_anchor_spacing, g.nodes_by_id())) {
    SchemaEntry e;
    e.schema_id = kSchemaNodeColor;
    e.anchor_id = g.id(a);
    e.payload.append(col[static_cast<std::size_t>(a)] == 2);
    enc.advice[a].push_back(std::move(e));
  }

  // Π_o: per trail, a direction hint every `spacing` positions. The payload
  // is the anchor's port of the trail edge *leaving* it in the trail's
  // as-given direction; the edge identifies both the trail and the
  // direction unambiguously (each edge lies on exactly one trail).
  const auto trails = euler_partition(g);
  for (const auto& t : trails) {
    LAD_CHECK(t.closed);  // even degrees: cycles only
    const int L = t.length();
    const int k = std::max(1, L / params.orientation_anchor_spacing);
    for (int i = 0; i < k; ++i) {
      const int pos = static_cast<int>(static_cast<long long>(i) * L / k);
      const int a = t.node_at(pos);
      const int e_out = t.edges[static_cast<std::size_t>(pos)];  // pos -> pos+1
      const int other = g.other_endpoint(e_out, a);
      const int port = g.port_of(a, other);
      LAD_CHECK(port >= 0);
      SchemaEntry e;
      e.schema_id = kSchemaOrientation;
      e.anchor_id = g.id(a);
      e.payload.append_gamma(static_cast<std::uint64_t>(port) + 1);
      enc.advice[a].push_back(std::move(e));
    }
  }

  if (params.uniform_one_bit) {
    auto uni = encode_var_advice_one_bit(g, enc.advice);
    enc.uniform_bits = std::move(uni.bits);
    enc.uniform_max_payload_bits = uni.max_payload_bits;
  }
  return enc;
}

RunningExampleDecodeResult decode_running_example(const Graph& g, const VarAdvice& advice,
                                                  const RunningExampleParams& params) {
  // Collect sub-schema entries.
  std::vector<int> color_anchor_nodes;
  std::map<int, int> color_of_anchor;                // node -> 1/2
  std::map<int, std::vector<int>> out_ports;         // node -> hinted ports
  for (const auto& [node, entries] : advice) {
    (void)node;
    for (const auto& e : entries) {
      const auto anchor = g.find_index(e.anchor_id);
      LAD_CHECK_MSG(anchor.has_value(), "advice anchors unknown node ID " << e.anchor_id);
      const int a = *anchor;
      if (e.schema_id == kSchemaNodeColor) {
        color_anchor_nodes.push_back(a);
        color_of_anchor[a] = e.payload.bit(0) ? 2 : 1;
      } else {
        LAD_CHECK(e.schema_id == kSchemaOrientation);
        int pos = 0;
        out_ports[a].push_back(static_cast<int>(e.payload.read_gamma(pos) - 1));
      }
    }
  }

  RunningExampleDecodeResult res;
  res.node_color.assign(static_cast<std::size_t>(g.n()), 0);
  res.edge_color.assign(static_cast<std::size_t>(g.m()), 0);

  // Π_v: parity propagation from the color anchors.
  LAD_CHECK_MSG(!color_anchor_nodes.empty() || g.n() == 0, "no color anchors decoded");
  const auto dist = bfs_distances_multi(g, color_anchor_nodes);
  int prop_rounds = 0;
  for (int v = 0; v < g.n(); ++v) {
    LAD_CHECK_MSG(dist[v] != kUnreachable, "node out of reach of every color anchor");
    // Walk one BFS path back to the anchor; parity flips per step.
    int cur = v;
    int steps = 0;
    while (dist[cur] != 0) {
      for (const int u : g.neighbors(cur)) {
        if (dist[u] == dist[cur] - 1) {
          cur = u;
          break;
        }
      }
      ++steps;
    }
    const int base = color_of_anchor.at(cur);
    res.node_color[static_cast<std::size_t>(v)] = steps % 2 == 0 ? base : 3 - base;
    prop_rounds = std::max(prop_rounds, steps);
  }

  // Π_o: orient every trail from any hinted edge on it.
  Orientation orient(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  const auto trails = euler_partition(g);
  for (const auto& t : trails) {
    const int L = t.length();
    int dir = 0;
    int at = -1;
    for (int pos = 0; pos < L && dir == 0; ++pos) {
      const int a = t.node_at(pos);
      const auto it = out_ports.find(a);
      if (it == out_ports.end()) continue;
      for (const int port : it->second) {
        const int e = g.incident_edges(a)[static_cast<std::size_t>(port)];
        if (e == t.edges[static_cast<std::size_t>(pos)]) {
          dir = +1;  // hinted edge leaves `a` toward pos+1
          at = pos;
        } else if (e == t.edges[static_cast<std::size_t>(((pos - 1) % L + L) % L)]) {
          dir = -1;  // hinted edge leaves `a` toward pos-1
          at = pos;
        }
        if (dir != 0) break;
      }
    }
    LAD_CHECK_MSG(dir != 0, "no orientation hint found on a trail");
    (void)at;
    orient_trail(g, t, dir, orient);
  }

  // Π_e: red = edges leaving white (color-1) nodes.
  for (int e = 0; e < g.m(); ++e) {
    const int tail = orient[static_cast<std::size_t>(e)] == EdgeDir::kForward ? g.edge_u(e)
                                                                              : g.edge_v(e);
    res.edge_color[static_cast<std::size_t>(e)] = res.node_color[static_cast<std::size_t>(tail)];
  }
  res.rounds = prop_rounds + params.orientation_anchor_spacing + 2;
  return res;
}

RunningExampleDecodeResult decode_running_example_one_bit(const Graph& g,
                                                          const std::vector<char>& bits,
                                                          int max_payload_bits,
                                                          const RunningExampleParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "one-bit advice must carry exactly one bit per node");
  LAD_CHECK(max_payload_bits >= 0);
  const auto advice = decode_var_advice_one_bit(g, bits, max_payload_bits);
  return decode_running_example(g, advice, params);
}

}  // namespace lad
