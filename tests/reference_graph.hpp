// Reference graph builder, kept verbatim as the oracle
// tests/test_graph_oracle.cpp compares the library against: Graph::Builder
// (add_node, add_edge, reserve, build(ThreadPool*)), Graph::rebuild_id_index
// and the pool_sort they share, as they were before construction moved to
// counting passes. Both sorts were comparison sorts, pool_sort a parallel
// merge sort on the pool.
//
// The only edits are the ones a copy outside the class needs: the builder
// fills a `Csr` (the Graph members it wrote, same names) instead of a
// private Graph, and rebuild_id_index is a free function over it. Test-only:
// nothing under src/ may include this file.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace lad::reference {

constexpr std::size_t kMaxNodes = static_cast<std::size_t>(std::numeric_limits<int>::max());
constexpr std::size_t kMaxEdges = kMaxNodes / 2;

// Below this size the merge tree costs more than it buys.
constexpr std::size_t kParallelSortCutoff = 1 << 15;

/// Deterministic parallel merge sort: per-chunk std::sort, then a binary
/// tree of stable std::inplace_merge passes (pairs merged concurrently at
/// each level). The output equals std::sort's for any thread count as long
/// as equal elements are bitwise identical — true for every key this file
/// sorts (full std::pair comparisons; genuinely equal pairs are duplicates
/// the caller rejects right after).
template <typename T>
void pool_sort(std::vector<T>& v, ThreadPool* pool) {
  const std::size_t size = v.size();
  const int threads = pool != nullptr ? pool->threads() : 1;
  if (threads <= 1 || size < kParallelSortCutoff) {
    std::sort(v.begin(), v.end());
    return;
  }
  const std::size_t chunks = static_cast<std::size_t>(threads);
  std::vector<std::size_t> bound(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) bound[c] = size * c / chunks;
  pool->for_each(threads, [&](int c) {
    const auto uc = static_cast<std::size_t>(c);
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(bound[uc]),
              v.begin() + static_cast<std::ptrdiff_t>(bound[uc + 1]));
  });
  for (std::size_t width = 1; width < chunks; width *= 2) {
    std::vector<std::size_t> lo_chunk;
    for (std::size_t c = 0; c + width < chunks; c += 2 * width) lo_chunk.push_back(c);
    pool->for_each(static_cast<int>(lo_chunk.size()), [&](int i) {
      const std::size_t c = lo_chunk[static_cast<std::size_t>(i)];
      const std::size_t lo = bound[c];
      const std::size_t mid = bound[c + width];
      const std::size_t hi = bound[std::min(c + 2 * width, chunks)];
      std::inplace_merge(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(mid),
                         v.begin() + static_cast<std::ptrdiff_t>(hi));
    });
  }
}

/// The Graph members the builder wrote.
struct Csr {
  std::vector<NodeId> ids_;
  std::vector<NodeId> sorted_ids_;  // ids_ in ascending order
  std::vector<int> by_id_ix_;       // node index owning sorted_ids_[k]
  std::vector<int> adj_off_;  // CSR offsets, size n+1
  std::vector<int> adj_;      // neighbor indices, sorted by neighbor ID per node
  std::vector<int> inc_;      // incident edge ids, aligned with adj_
  std::vector<int> edge_u_, edge_v_;
  int max_degree_ = 0;
};

inline void rebuild_id_index(Csr& g, ThreadPool* pool) {
  const std::size_t n = g.ids_.size();
  std::vector<std::pair<NodeId, int>> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = {g.ids_[v], static_cast<int>(v)};
  pool_sort(order, pool);  // (id, index) is a total order: no ties possible
  g.sorted_ids_.resize(n);
  g.by_id_ix_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    g.sorted_ids_[k] = order[k].first;
    g.by_id_ix_[k] = order[k].second;
    LAD_CHECK_MSG(k == 0 || g.sorted_ids_[k] != g.sorted_ids_[k - 1],
                  "duplicate node ID " << g.sorted_ids_[k]);
  }
}

class Builder {
 public:
  int add_node(NodeId id) {
    LAD_CHECK_MSG(id >= 1, "LOCAL identifiers must be positive, got " << id);
    LAD_CHECK_MSG(ids_.size() < kMaxNodes, "graph too large: node count exceeds 32-bit index");
    ids_.push_back(id);
    return static_cast<int>(ids_.size()) - 1;
  }

  void add_edge(int u, int v) {
    LAD_CHECK_MSG(u >= 0 && u < n() && v >= 0 && v < n(),
                  "edge endpoint out of range: {" << u << "," << v << "} with n=" << n());
    LAD_CHECK_MSG(u != v, "self-loop at node index " << u);
    LAD_CHECK_MSG(edges_.size() < kMaxEdges,
                  "graph too large: edge count exceeds 32-bit arc index (2m must fit an int)");
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }

  void reserve(std::size_t nodes, std::size_t edges) {
    ids_.reserve(nodes);
    edges_.reserve(edges);
  }

  int n() const { return static_cast<int>(ids_.size()); }

  Csr build(ThreadPool* pool) && {
    // add_node/add_edge guard incrementally; these are the belt-and-braces
    // checks for the 32-bit-index contract before any arithmetic below.
    LAD_CHECK_MSG(ids_.size() <= kMaxNodes, "graph too large: " << ids_.size() << " nodes");
    LAD_CHECK_MSG(edges_.size() <= kMaxEdges, "graph too large: " << edges_.size() << " edges");

    Csr g;
    g.ids_ = std::move(ids_);
    const int n = static_cast<int>(g.ids_.size());

    rebuild_id_index(g, pool);  // throws on duplicate node IDs

    // Normalized edges sorted lexicographically; the sorted position is the
    // edge's identity (edge IDs are a pure function of the edge multiset).
    pool_sort(edges_, pool);
    const auto dup = std::adjacent_find(edges_.begin(), edges_.end());
    LAD_CHECK_MSG(dup == edges_.end(), "parallel edge between indices "
                                           << (dup == edges_.end() ? -1 : dup->first) << " and "
                                           << (dup == edges_.end() ? -1 : dup->second));

    const int m = static_cast<int>(edges_.size());
    g.edge_u_.resize(static_cast<std::size_t>(m));
    g.edge_v_.resize(static_cast<std::size_t>(m));
    std::vector<int> deg(static_cast<std::size_t>(n), 0);
    const bool parallel = pool != nullptr && pool->threads() > 1;
    if (parallel) {
      // Degree histogram via relaxed atomic increments: the final counts are
      // order-independent sums, so the histogram — and everything derived
      // from it — is byte-identical to the serial loop at any thread count.
      pool->parallel_for(m, [&](int b, int e, int) {
        for (int i = b; i < e; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          const auto [u, v] = edges_[ui];
          g.edge_u_[ui] = u;
          g.edge_v_[ui] = v;
          std::atomic_ref<int>(deg[static_cast<std::size_t>(u)])
              .fetch_add(1, std::memory_order_relaxed);
          std::atomic_ref<int>(deg[static_cast<std::size_t>(v)])
              .fetch_add(1, std::memory_order_relaxed);
        }
      });
    } else {
      for (int e = 0; e < m; ++e) {
        const auto ue = static_cast<std::size_t>(e);
        const auto [u, v] = edges_[ue];
        g.edge_u_[ue] = u;
        g.edge_v_[ue] = v;
        ++deg[static_cast<std::size_t>(u)];
        ++deg[static_cast<std::size_t>(v)];
      }
    }

    g.adj_off_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      g.adj_off_[uv + 1] = g.adj_off_[uv] + deg[uv];
    }
    g.adj_.resize(static_cast<std::size_t>(g.adj_off_[static_cast<std::size_t>(n)]));
    g.inc_.resize(g.adj_.size());

    // Counting-sort scatter. The serial cursor pass defines slot order (arcs
    // land in edge order within each node's slice); it is O(m), memory-bound,
    // and every slice gets re-sorted by neighbor ID below anyway, so this
    // stays serial rather than buying nondeterminism for a scatter.
    std::vector<int> cursor(g.adj_off_.begin(), g.adj_off_.end() - 1);
    for (int e = 0; e < m; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const int u = g.edge_u_[ue], v = g.edge_v_[ue];
      auto& cu = cursor[static_cast<std::size_t>(u)];
      auto& cv = cursor[static_cast<std::size_t>(v)];
      g.adj_[static_cast<std::size_t>(cu)] = v;
      g.inc_[static_cast<std::size_t>(cu++)] = e;
      g.adj_[static_cast<std::size_t>(cv)] = u;
      g.inc_[static_cast<std::size_t>(cv++)] = e;
    }

    // Sort each adjacency slice by neighbor ID, carrying incident edge ids
    // along. Slices are disjoint, so chunking nodes over the pool is a pure
    // per-slice write; neighbor IDs are unique per slice (simple graph), so
    // each sorted slice is the unique ascending order.
    struct Arc {
      NodeId key;
      int adj;
      int inc;
      bool operator<(const Arc& o) const { return key < o.key; }
    };
    const int slice_chunks = parallel ? pool->threads() : 1;
    std::vector<int> chunk_max(static_cast<std::size_t>(slice_chunks), 0);
    auto sort_slices = [&](int b, int e, int chunk) {
      std::vector<Arc> buf;
      int local_max = 0;
      for (int v = b; v < e; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        const int lo = g.adj_off_[uv], hi = g.adj_off_[uv + 1];
        local_max = std::max(local_max, hi - lo);
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
      chunk_max[static_cast<std::size_t>(chunk)] = local_max;
    };
    if (parallel) {
      pool->parallel_for(n, sort_slices);
    } else {
      sort_slices(0, n, 0);
    }
    g.max_degree_ = *std::max_element(chunk_max.begin(), chunk_max.end());
    return g;
  }

 private:
  std::vector<NodeId> ids_;
  std::vector<std::pair<int, int>> edges_;
};

}  // namespace lad::reference
