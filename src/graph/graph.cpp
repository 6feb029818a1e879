#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace lad {
namespace {

// 32-bit indices are deliberate (header): these are the exact quantities
// that must fit. 2m is the CSR arc count, so m gets half the range.
constexpr std::size_t kMaxNodes = static_cast<std::size_t>(std::numeric_limits<int>::max());
constexpr std::size_t kMaxEdges = kMaxNodes / 2;

}  // namespace

int Graph::Builder::add_node(NodeId id) {
  LAD_CHECK_MSG(id >= 1, "LOCAL identifiers must be positive, got " << id);
  LAD_CHECK_MSG(ids_.size() < kMaxNodes, "graph too large: node count exceeds 32-bit index");
  ids_.push_back(id);
  return static_cast<int>(ids_.size()) - 1;
}

void Graph::Builder::add_edge(int u, int v) {
  LAD_CHECK_MSG(u >= 0 && u < n() && v >= 0 && v < n(),
                "edge endpoint out of range: {" << u << "," << v << "} with n=" << n());
  LAD_CHECK_MSG(u != v, "self-loop at node index " << u);
  LAD_CHECK_MSG(lo_.size() < kMaxEdges,
                "graph too large: edge count exceeds 32-bit arc index (2m must fit an int)");
  lo_.push_back(std::min(u, v));
  hi_.push_back(std::max(u, v));
}

void Graph::Builder::reserve(std::size_t nodes, std::size_t edges) {
  ids_.reserve(nodes);
  lo_.reserve(edges);
  hi_.reserve(edges);
}

Graph Graph::Builder::build() && {
  return std::move(*this).build(static_cast<ThreadPool*>(nullptr));
}

Graph Graph::Builder::build(ThreadPool* pool) && {
  // add_node/add_edge guard incrementally; these are the belt-and-braces
  // checks for the 32-bit-index contract before any arithmetic below.
  LAD_CHECK_MSG(ids_.size() <= kMaxNodes, "graph too large: " << ids_.size() << " nodes");
  LAD_CHECK_MSG(lo_.size() <= kMaxEdges, "graph too large: " << lo_.size() << " edges");

  Graph g;
  g.ids_ = std::move(ids_);
  const int n = g.n();
  const std::size_t m = lo_.size();
  g.rebuild_id_index();  // throws on duplicate node IDs

  // An edge's identity is the rank of its (lo, hi) pair in lexicographic
  // order, so edge IDs are a pure function of the edge set. Two stable
  // counting passes, by hi and then by lo, put the edges in that order in
  // O(n + m) at any degree. adj_ holds the pairs between the passes, before
  // it gets its own contents below. Every edge is counted once under each
  // endpoint, so the two histograms add up to the degrees in adj_off_.
  g.adj_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.adj_.resize(2 * m);
  g.inc_.resize(2 * m);
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);
  std::vector<int> start(static_cast<std::size_t>(n) + 1);
  auto counting_pass = [&](std::span<const int> key, std::span<const int> lo,
                           std::span<const int> hi, std::span<int> out_lo,
                           std::span<int> out_hi) {
    std::fill(start.begin(), start.end(), 0);
    for (const int k : key) ++start[static_cast<std::size_t>(k) + 1];
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
      g.adj_off_[v + 1] += start[v + 1];
      start[v + 1] += start[v];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const auto p = static_cast<std::size_t>(start[static_cast<std::size_t>(key[i])]++);
      out_lo[p] = lo[i];
      out_hi[p] = hi[i];
    }
  };
  const std::span<int> mid_lo(g.adj_.data(), m);
  const std::span<int> mid_hi(g.adj_.data() + m, m);
  counting_pass(hi_, lo_, hi_, mid_lo, mid_hi);
  counting_pass(mid_lo, mid_lo, mid_hi, g.edge_u_, g.edge_v_);
  const auto same_as_previous = [&](std::size_t e) {
    return g.edge_u_[e] == g.edge_u_[e - 1] && g.edge_v_[e] == g.edge_v_[e - 1];
  };
  std::size_t dup = 1;
  while (dup < m && !same_as_previous(dup)) ++dup;
  LAD_CHECK_MSG(dup >= m, "parallel edge between indices " << g.edge_u_[dup] << " and "
                                                          << g.edge_v_[dup]);

  g.max_degree_ = 0;
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.adj_off_[v + 1]);
    g.adj_off_[v + 1] += g.adj_off_[v];
  }

  // Scatter the arcs into their slices in edge order, then sort each slice
  // by neighbor ID, carrying incident edge ids along. Slices are disjoint,
  // so chunking nodes over the pool is a pure per-slice write; neighbor IDs
  // are unique per slice (simple graph), so each sorted slice is the unique
  // ascending order at any thread count.
  std::copy(g.adj_off_.begin(), g.adj_off_.end() - 1, start.begin());
  for (std::size_t e = 0; e < m; ++e) {
    const auto u = static_cast<std::size_t>(g.edge_u_[e]);
    const auto v = static_cast<std::size_t>(g.edge_v_[e]);
    const auto cu = static_cast<std::size_t>(start[u]++);
    const auto cv = static_cast<std::size_t>(start[v]++);
    g.adj_[cu] = static_cast<int>(v);
    g.inc_[cu] = static_cast<int>(e);
    g.adj_[cv] = static_cast<int>(u);
    g.inc_[cv] = static_cast<int>(e);
  }
  struct Arc {
    NodeId key;
    int adj;
    int inc;
    bool operator<(const Arc& o) const { return key < o.key; }
  };
  auto sort_slices = [&](int b, int e, int) {
    std::vector<Arc> buf;
    for (int v = b; v < e; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const int lo = g.adj_off_[uv], hi = g.adj_off_[uv + 1];
      buf.clear();
      for (int k = lo; k < hi; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        buf.push_back({g.ids_[static_cast<std::size_t>(g.adj_[uk])], g.adj_[uk], g.inc_[uk]});
      }
      std::sort(buf.begin(), buf.end());
      for (int k = lo; k < hi; ++k) {
        const auto& a = buf[static_cast<std::size_t>(k - lo)];
        g.adj_[static_cast<std::size_t>(k)] = a.adj;
        g.inc_[static_cast<std::size_t>(k)] = a.inc;
      }
    }
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->parallel_for(n, sort_slices);
  } else {
    sort_slices(0, n, 0);
  }
  return g;
}

void Graph::rebuild_id_index() {
  // Stable LSD radix sort of the node indices by ID, in digits of
  // max(8, bit_width(n)) bits: IDs from {1, ..., poly(n)} take a constant
  // number of passes, and a permutation of 1..n takes one. Being stable, it
  // keeps equal IDs in index order, as a sort of (id, index) pairs would,
  // so the duplicate check below names the smallest duplicated ID.
  // Precondition: every ID is >= 1 (add_node and from_parts check it).
  const auto n = static_cast<std::size_t>(this->n());
  const int digit_bits = std::max(8, static_cast<int>(std::bit_width(n)));
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  std::uint64_t max_id = 0;
  for (const NodeId id : ids_) max_id = std::max(max_id, static_cast<std::uint64_t>(id));
  by_id_ix_.resize(n);
  std::iota(by_id_ix_.begin(), by_id_ix_.end(), 0);
  std::vector<int> next(n);
  std::vector<int> start(static_cast<std::size_t>(mask) + 2);
  const auto id_bits = static_cast<int>(std::bit_width(max_id));
  for (int shift = 0; shift < id_bits; shift += digit_bits) {
    const auto digit = [&](int v) {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(ids_[static_cast<std::size_t>(v)]) >> shift) & mask);
    };
    std::fill(start.begin(), start.end(), 0);
    for (const int v : by_id_ix_) ++start[digit(v) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const int v : by_id_ix_) next[static_cast<std::size_t>(start[digit(v)]++)] = v;
    by_id_ix_.swap(next);
  }
  sorted_ids_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_ids_[k] = ids_[static_cast<std::size_t>(by_id_ix_[k])];
  }
  std::size_t dup = 1;
  while (dup < n && sorted_ids_[dup] != sorted_ids_[dup - 1]) ++dup;
  LAD_CHECK_MSG(dup >= n, "duplicate node ID " << sorted_ids_[dup]);
}

Graph Graph::from_parts(Parts&& parts) {
  Graph g;
  g.ids_ = std::move(parts.ids);
  g.adj_off_ = std::move(parts.adj_off);
  g.adj_ = std::move(parts.adj);
  g.inc_ = std::move(parts.inc);
  g.edge_u_ = std::move(parts.edge_u);
  g.edge_v_ = std::move(parts.edge_v);

  const std::size_t n = g.ids_.size();
  const std::size_t m = g.edge_u_.size();
  LAD_CHECK_MSG(n <= kMaxNodes, "parts: " << n << " nodes exceeds 32-bit index");
  LAD_CHECK_MSG(m <= kMaxEdges, "parts: " << m << " edges exceeds 32-bit arc index");
  LAD_CHECK_MSG(g.edge_v_.size() == m, "parts: edge endpoint arrays disagree");
  LAD_CHECK_MSG(g.adj_off_.size() == n + 1, "parts: adj_off must have n+1 entries");
  LAD_CHECK_MSG(g.adj_.size() == 2 * m && g.inc_.size() == 2 * m,
                "parts: adjacency arrays must have 2m entries");
  LAD_CHECK_MSG(g.adj_off_.front() == 0 &&
                    static_cast<std::size_t>(g.adj_off_.back()) == 2 * m,
                "parts: CSR offsets must span [0, 2m]");

  // Structural validation, O(n + m): the digest footer of a .ladg file
  // guards against bit rot, this guards against a well-formed file that
  // simply encodes a non-graph (or a graph violating our invariants).
  g.max_degree_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    LAD_CHECK_MSG(g.adj_off_[v] <= g.adj_off_[v + 1], "parts: CSR offsets not monotone");
    g.max_degree_ = std::max(g.max_degree_, g.adj_off_[v + 1] - g.adj_off_[v]);
  }
  for (std::size_t e = 0; e < m; ++e) {
    const int u = g.edge_u_[e], v = g.edge_v_[e];
    LAD_CHECK_MSG(u >= 0 && u < v && static_cast<std::size_t>(v) < n,
                  "parts: edge " << e << " endpoints out of order or range");
    LAD_CHECK_MSG(e == 0 || std::pair(g.edge_u_[e - 1], g.edge_v_[e - 1]) < std::pair(u, v),
                  "parts: edges not strictly sorted (duplicate or misordered)");
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(g.adj_off_[v]);
    const auto hi = static_cast<std::size_t>(g.adj_off_[v + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const int w = g.adj_[k];
      const int e = g.inc_[k];
      LAD_CHECK_MSG(w >= 0 && static_cast<std::size_t>(w) < n,
                    "parts: neighbor index out of range");
      LAD_CHECK_MSG(e >= 0 && static_cast<std::size_t>(e) < m,
                    "parts: incident edge index out of range");
      const auto ue = static_cast<std::size_t>(e);
      const bool aligned =
          (g.edge_u_[ue] == static_cast<int>(v) && g.edge_v_[ue] == w) ||
          (g.edge_v_[ue] == static_cast<int>(v) && g.edge_u_[ue] == w);
      LAD_CHECK_MSG(aligned, "parts: incident edge " << e << " does not match adjacency");
      LAD_CHECK_MSG(k == lo || g.ids_[static_cast<std::size_t>(g.adj_[k - 1])] <
                                   g.ids_[static_cast<std::size_t>(w)],
                    "parts: adjacency of node " << v << " not sorted by neighbor ID");
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    LAD_CHECK_MSG(g.ids_[v] >= 1, "parts: LOCAL identifiers must be positive");
  }
  g.rebuild_id_index();  // checks ID uniqueness
  return g;
}

Graph Graph::edge_subgraph(std::span<const int> kept) const {
  Graph sub;
  sub.ids_ = ids_;
  sub.sorted_ids_ = sorted_ids_;
  sub.by_id_ix_ = by_id_ix_;
  const std::size_t n = ids_.size();
  const std::size_t sub_m = kept.size();
  std::vector<int> sub_edge(edge_u_.size(), -1);  // parent edge -> sub edge, or -1
  sub.edge_u_.resize(sub_m);
  sub.edge_v_.resize(sub_m);
  for (std::size_t i = 0; i < sub_m; ++i) {
    const int e = kept[i];
    LAD_CHECK_MSG(e >= 0 && e < m() && (i == 0 || kept[i - 1] < e),
                  "edge_subgraph: kept edge ids must be strictly ascending in [0, "
                      << m() << "), got " << e << " at position " << i);
    const auto ue = static_cast<std::size_t>(e);
    sub_edge[ue] = static_cast<int>(i);
    sub.edge_u_[i] = edge_u_[ue];
    sub.edge_v_[i] = edge_v_[ue];
  }
  sub.adj_off_.resize(n + 1);
  sub.adj_.resize(2 * sub_m);
  sub.inc_.resize(2 * sub_m);
  std::size_t arcs = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(adj_off_[v]);
    const auto hi = static_cast<std::size_t>(adj_off_[v + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const int se = sub_edge[static_cast<std::size_t>(inc_[k])];
      if (se < 0) continue;
      sub.adj_[arcs] = adj_[k];
      sub.inc_[arcs] = se;
      ++arcs;
    }
    sub.adj_off_[v + 1] = static_cast<int>(arcs);
    sub.max_degree_ = std::max(sub.max_degree_, sub.adj_off_[v + 1] - sub.adj_off_[v]);
  }
  return sub;
}

std::optional<int> Graph::find_index(NodeId id) const {
  const auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  if (it == sorted_ids_.end() || *it != id) return std::nullopt;
  return by_id_ix_[static_cast<std::size_t>(it - sorted_ids_.begin())];
}

int Graph::edge_between(int u, int v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nb = neighbors(u);
  const auto ie = incident_edges(u);
  for (std::size_t p = 0; p < nb.size(); ++p) {
    if (nb[p] == v) return ie[p];
  }
  return -1;
}

int Graph::port_of(int v, int u) const {
  const auto nb = neighbors(v);
  for (std::size_t p = 0; p < nb.size(); ++p) {
    if (nb[p] == u) return static_cast<int>(p);
  }
  return -1;
}

Graph make_graph(const std::vector<NodeId>& ids,
                 const std::vector<std::pair<NodeId, NodeId>>& edges_by_id) {
  Graph::Builder b;
  std::unordered_map<NodeId, int> ix;
  for (const NodeId id : ids) ix[id] = b.add_node(id);
  for (const auto& [a, c] : edges_by_id) {
    LAD_CHECK_MSG(ix.count(a) && ix.count(c), "edge references unknown ID");
    b.add_edge(ix[a], ix[c]);
  }
  return std::move(b).build();
}

}  // namespace lad
