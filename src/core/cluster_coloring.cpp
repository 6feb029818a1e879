#include "core/cluster_coloring.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "baselines/linial.hpp"
#include "graph/checkers.hpp"
#include "graph/distance.hpp"
#include "graph/ruling_set.hpp"

namespace lad {
namespace {

// Deterministic cluster assignment around the given centers: every node
// joins the center minimizing (distance, center ID). Locally computable
// once a node knows the centers within its domination radius.
struct Clustering {
  std::vector<int> cluster_of;  // node -> index into centers
  std::vector<int> centers;     // sorted by ID
  int max_radius = 0;
};

Clustering assign_clusters(const Graph& g, std::vector<int> centers) {
  std::sort(centers.begin(), centers.end(), [&](int a, int b) { return g.id(a) < g.id(b); });
  Clustering c;
  c.centers = centers;
  c.cluster_of.assign(static_cast<std::size_t>(g.n()), -1);

  // One multi-source BFS, then a layer-order DP: a node's min-ID nearest
  // center is the minimum of its BFS parents' choices. Centers are sorted
  // by ID, so the smallest center index is the smallest center ID. A node
  // reads only the layer before its own, so any order by distance gives
  // the same result; a counting pass makes one.
  const auto dist = bfs_distances_multi(g, centers);
  for (const int v : g.nodes()) {
    LAD_CHECK_MSG(dist[v] != kUnreachable, "node not covered by any cluster center");
    c.max_radius = std::max(c.max_radius, dist[v]);
  }
  std::vector<int> start(static_cast<std::size_t>(c.max_radius) + 2, 0);
  for (const int d : dist) ++start[static_cast<std::size_t>(d) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<int> order(static_cast<std::size_t>(g.n()));
  for (const int v : g.nodes()) order[static_cast<std::size_t>(start[dist[v]]++)] = v;

  for (std::size_t i = 0; i < centers.size(); ++i) c.cluster_of[centers[i]] = static_cast<int>(i);
  for (const int v : order) {
    if (dist[v] == 0) continue;
    int& choice = c.cluster_of[v];
    for (const int u : g.neighbors(v)) {
      if (dist[u] == dist[v] - 1 && (choice == -1 || c.cluster_of[u] < choice)) {
        choice = c.cluster_of[u];
      }
    }
  }
  return c;
}

// Canonical intra-cluster (Δ+1)-coloring: greedy by ID over each cluster's
// induced subgraph (a cluster center performs this after gathering its
// cluster).
std::vector<int> intra_cluster_coloring(const Graph& g, const Clustering& c) {
  std::vector<int> intra(static_cast<std::size_t>(g.n()), 0);
  for (const int v : g.nodes_by_id()) {
    std::set<int> used;
    for (const int u : g.neighbors(v)) {
      if (c.cluster_of[u] == c.cluster_of[v] && intra[u] > 0) used.insert(intra[u]);
    }
    int col = 1;
    while (used.count(col)) ++col;
    intra[v] = col;
  }
  return intra;
}

// Proper coloring of the cluster graph, greedy by center ID.
std::vector<int> color_cluster_graph(const Graph& g, const Clustering& c) {
  const int k = static_cast<int>(c.centers.size());
  std::vector<std::set<int>> adj(static_cast<std::size_t>(k));
  for (int e = 0; e < g.m(); ++e) {
    const int a = c.cluster_of[g.edge_u(e)];
    const int b = c.cluster_of[g.edge_v(e)];
    if (a != b) {
      adj[static_cast<std::size_t>(a)].insert(b);
      adj[static_cast<std::size_t>(b)].insert(a);
    }
  }
  std::vector<int> colors(static_cast<std::size_t>(k), 0);
  for (int i = 0; i < k; ++i) {
    std::set<int> used;
    for (const int j : adj[static_cast<std::size_t>(i)]) {
      if (colors[static_cast<std::size_t>(j)] > 0) {
        used.insert(colors[static_cast<std::size_t>(j)]);
      }
    }
    int col = 1;
    while (used.count(col)) ++col;
    colors[static_cast<std::size_t>(i)] = col;
  }
  return colors;
}

// Shared by encoder simulation and decoder: clustering + cluster colors ->
// proper O(Δ^2) coloring.
ClusterColoringDecodeResult finish(const Graph& g, const Clustering& clustering,
                                   const std::vector<int>& cluster_colors) {
  const int delta = std::max(1, g.max_degree());
  const auto intra = intra_cluster_coloring(g, clustering);
  int num_cluster_colors = 1;
  for (const int col : cluster_colors) num_cluster_colors = std::max(num_cluster_colors, col);

  std::vector<int> base(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    base[v] = intra[v] + (delta + 1) * (cluster_colors[clustering.cluster_of[v]] - 1);
  }
  const int c0 = (delta + 1) * num_cluster_colors;
  LAD_CHECK(is_proper_coloring(g, base, c0));

  auto lin = linial_reduce(g, std::move(base), c0);
  ClusterColoringDecodeResult res;
  res.coloring = std::move(lin.colors);
  res.num_colors = lin.num_colors;
  res.rounds = 2 * clustering.max_radius + lin.rounds;
  return res;
}

}  // namespace

ClusterColoringEncoding encode_cluster_coloring_advice(const Graph& g,
                                                       const ClusterColoringParams& params) {
  const auto centers = ruling_set(g, params.cluster_spacing, g.nodes_by_id());
  const auto clustering = assign_clusters(g, centers);
  const auto cluster_colors = color_cluster_graph(g, clustering);

  ClusterColoringEncoding enc;
  enc.num_clusters = static_cast<int>(clustering.centers.size());
  for (const int col : cluster_colors) {
    enc.num_cluster_colors = std::max(enc.num_cluster_colors, col);
  }
  for (std::size_t i = 0; i < clustering.centers.size(); ++i) {
    SchemaEntry e;
    e.schema_id = params.schema_id;
    e.anchor_id = g.id(clustering.centers[i]);
    e.payload.append_gamma(static_cast<std::uint64_t>(cluster_colors[i]));
    enc.advice[clustering.centers[i]].push_back(std::move(e));
  }
  return enc;
}

ClusterColoringDecodeResult decode_cluster_coloring(const Graph& g, const VarAdvice& advice,
                                                    const ClusterColoringParams& params) {
  std::vector<int> centers;
  std::map<NodeId, int> color_of;
  for (const auto& [node, entries] : advice) {
    (void)node;
    for (const auto& e : entries) {
      if (e.schema_id != params.schema_id) continue;
      const auto anchor = g.find_index(e.anchor_id);
      LAD_CHECK_MSG(anchor.has_value(), "advice anchors unknown node ID " << e.anchor_id);
      centers.push_back(*anchor);
      int pos = 0;
      const std::uint64_t color = e.payload.read_gamma(pos);
      LAD_CHECK_MSG(color <= static_cast<std::uint64_t>(g.n()) + 1,
                    "cluster color " << color << " out of range at anchor " << e.anchor_id);
      color_of[e.anchor_id] = static_cast<int>(color);
    }
  }
  const auto clustering = assign_clusters(g, centers);
  std::vector<int> cluster_colors(clustering.centers.size());
  for (std::size_t i = 0; i < clustering.centers.size(); ++i) {
    cluster_colors[i] = color_of.at(g.id(clustering.centers[i]));
  }
  return finish(g, clustering, cluster_colors);
}

}  // namespace lad
