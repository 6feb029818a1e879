// Undirected simple graph with LOCAL-model identifiers.
//
// Nodes carry two names:
//   * a dense internal index in [0, n) used for storage, and
//   * a unique identifier (NodeId) from {1, ..., poly(n)} as in the LOCAL
//     model; algorithms and advice schemas are allowed to depend on IDs.
//
// Adjacency lists are sorted by neighbor *ID* (not index), which gives every
// node a deterministic, locally computable port order — the paper's
// "sorting the neighbors of v by their IDs".
//
// Scale contract (DESIGN.md §12): the graph is flat CSR over 32-bit node
// and edge indices — deliberately, for cache density at n = 10⁶–10⁷ — with
// LAD_CHECK overflow guards in Builder::build() where the 32-bit choice
// could silently truncate (2m must fit an int). The ID index is a sorted
// array (binary search), not a hash map: half the memory, deterministic
// iteration order for free (`nodes_by_id()`), and no per-node heap nodes.
// IDs come from {1, ..., poly(n)}, so a radix sort builds it in O(n).
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace lad {

class ThreadPool;

using NodeId = std::int64_t;

class Graph {
 public:
  /// Allocation-free view of the dense node indices [0, n) (a 10⁷-entry
  /// std::vector<int> per call would be real money). Random-access, so it
  /// drops into range-for, std algorithms, and vector construction alike.
  class NodeRange {
   public:
    class iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = int;
      using difference_type = std::ptrdiff_t;
      using pointer = const int*;
      using reference = int;

      iterator() = default;
      explicit iterator(int i) : i_(i) {}
      int operator*() const { return i_; }
      int operator[](difference_type k) const { return i_ + static_cast<int>(k); }
      iterator& operator++() { ++i_; return *this; }
      iterator operator++(int) { iterator t = *this; ++i_; return t; }
      iterator& operator--() { --i_; return *this; }
      iterator operator--(int) { iterator t = *this; --i_; return t; }
      iterator& operator+=(difference_type k) { i_ += static_cast<int>(k); return *this; }
      iterator& operator-=(difference_type k) { i_ -= static_cast<int>(k); return *this; }
      friend iterator operator+(iterator a, difference_type k) { return a += k; }
      friend iterator operator+(difference_type k, iterator a) { return a += k; }
      friend iterator operator-(iterator a, difference_type k) { return a -= k; }
      friend difference_type operator-(iterator a, iterator b) { return a.i_ - b.i_; }
      friend bool operator==(iterator a, iterator b) { return a.i_ == b.i_; }
      friend bool operator!=(iterator a, iterator b) { return a.i_ != b.i_; }
      friend bool operator<(iterator a, iterator b) { return a.i_ < b.i_; }
      friend bool operator<=(iterator a, iterator b) { return a.i_ <= b.i_; }
      friend bool operator>(iterator a, iterator b) { return a.i_ > b.i_; }
      friend bool operator>=(iterator a, iterator b) { return a.i_ >= b.i_; }

     private:
      int i_ = 0;
    };

    NodeRange() = default;
    explicit NodeRange(int n) : n_(n) {}
    iterator begin() const { return iterator(0); }
    iterator end() const { return iterator(n_); }
    int size() const { return n_; }
    bool empty() const { return n_ == 0; }
    int operator[](int k) const { return k; }
    int front() const { return 0; }
    int back() const { return n_ - 1; }

   private:
    int n_ = 0;
  };

  /// Incrementally assembles a graph, then `build()`s it.
  class Builder {
   public:
    /// Declares a node with the given unique LOCAL identifier.
    /// Returns the dense index of the node.
    int add_node(NodeId id);

    /// Adds an undirected edge between node indices u and v.
    /// Parallel edges and self-loops are rejected.
    void add_edge(int u, int v);

    /// Pre-sizes the internal buffers (bulk ingestion at n = 10⁶–10⁷).
    void reserve(std::size_t nodes, std::size_t edges);

    /// Number of nodes added so far.
    int n() const { return static_cast<int>(ids_.size()); }

    /// Serial construction — identical to build(nullptr).
    Graph build() &&;

    /// Linear-time construction of the CSR arrays: a radix sort of the
    /// node indices by ID builds the ID index, two stable counting passes
    /// put the edges in (lo, hi) order (parallel edges and duplicate IDs
    /// still throw), and the arcs are scattered into their slices. Only the
    /// last step, sorting each adjacency slice by neighbor ID, runs on the
    /// pool. Output is byte-identical at any thread count (the §8
    /// determinism contract): the serial passes are the same at every pool
    /// size, and each slice's sorted order is unique and written only by
    /// the chunk that owns the slice.
    Graph build(ThreadPool* pool) &&;

   private:
    std::vector<NodeId> ids_;
    std::vector<int> lo_, hi_;  // edge endpoints, lo_[e] < hi_[e]
  };

  /// Raw CSR parts for direct adoption (the `.ladg` mmap loader in
  /// graph/io.* materializes these without re-running Builder's passes).
  /// `from_parts` validates structure — offsets monotone, endpoints in
  /// range, adjacency sorted by neighbor ID, incident edges aligned, IDs
  /// positive and unique — builds the ID index, and throws
  /// ContractViolation on any violation.
  struct Parts {
    std::vector<NodeId> ids;
    std::vector<int> adj_off;  // size n+1
    std::vector<int> adj;      // size 2m
    std::vector<int> inc;      // size 2m
    std::vector<int> edge_u;   // size m
    std::vector<int> edge_v;   // size m
  };
  static Graph from_parts(Parts&& parts);

  Graph() = default;

  /// The spanning subgraph with only the edges `kept` (edge ids, strictly
  /// ascending): sub edge i is edge kept[i]. A copy in O(n + m), with no
  /// sort: nodes, IDs and the ID index stay as they are, and each
  /// adjacency slice keeps its port order minus the dropped edges. Edges
  /// are ordered by (lo, hi) and ports by neighbor ID, so the result is
  /// exactly Builder's graph of the same nodes and kept edges.
  Graph edge_subgraph(std::span<const int> kept) const;

  int n() const { return static_cast<int>(ids_.size()); }
  int m() const { return static_cast<int>(edge_u_.size()); }

  int degree(int v) const {
    LAD_ASSERT(v >= 0 && v < n());
    return adj_off_[v + 1] - adj_off_[v];
  }
  int max_degree() const { return max_degree_; }

  /// Neighbors of v, sorted by their IDs (deterministic port order).
  std::span<const int> neighbors(int v) const {
    LAD_ASSERT(v >= 0 && v < n());
    return {adj_.data() + adj_off_[v], adj_.data() + adj_off_[v + 1]};
  }

  /// Incident edge indices of v, aligned with `neighbors(v)`:
  /// incident_edges(v)[p] is the edge {v, neighbors(v)[p]}.
  std::span<const int> incident_edges(int v) const {
    LAD_ASSERT(v >= 0 && v < n());
    return {inc_.data() + adj_off_[v], inc_.data() + adj_off_[v + 1]};
  }

  NodeId id(int v) const {
    LAD_ASSERT(v >= 0 && v < n());
    return ids_[v];
  }

  /// Dense index of the node with the given ID, or nullopt if absent.
  /// Binary search over the sorted ID index: O(log n), no hashing.
  std::optional<int> find_index(NodeId id) const;

  /// Endpoints of edge e, with endpoint_u(e) < endpoint_v(e) as indices.
  int edge_u(int e) const {
    LAD_ASSERT(e >= 0 && e < m());
    return edge_u_[e];
  }
  int edge_v(int e) const {
    LAD_ASSERT(e >= 0 && e < m());
    return edge_v_[e];
  }

  /// The endpoint of edge e that is not w.
  int other_endpoint(int e, int w) const {
    LAD_CHECK(edge_u_[e] == w || edge_v_[e] == w);
    return edge_u_[e] == w ? edge_v_[e] : edge_u_[e];
  }

  /// Edge index of {u, v}; returns -1 if not adjacent.
  int edge_between(int u, int v) const;

  /// Port of u in v's adjacency list (position of u among v's neighbors);
  /// returns -1 if u is not a neighbor of v.
  int port_of(int v, int u) const;

  bool adjacent(int u, int v) const { return edge_between(u, v) >= 0; }

  /// All node indices [0, n) as an allocation-free view.
  NodeRange nodes() const { return NodeRange(n()); }

  /// Node indices ordered by ascending LOCAL identifier — the sorted ID
  /// index itself, exposed: "iterate nodes in ID order" costs nothing.
  std::span<const int> nodes_by_id() const { return by_id_ix_; }

  // Raw contiguous CSR views for serialization and digesting (graph/io.*).
  std::span<const NodeId> raw_ids() const { return ids_; }
  std::span<const int> raw_adj_off() const { return adj_off_; }
  std::span<const int> raw_adj() const { return adj_; }
  std::span<const int> raw_inc() const { return inc_; }
  std::span<const int> raw_edge_u() const { return edge_u_; }
  std::span<const int> raw_edge_v() const { return edge_v_; }

 private:
  friend class Builder;

  void rebuild_id_index();

  std::vector<NodeId> ids_;
  std::vector<NodeId> sorted_ids_;  // ids_ in ascending order
  std::vector<int> by_id_ix_;       // node index owning sorted_ids_[k]
  std::vector<int> adj_off_;  // CSR offsets, size n+1
  std::vector<int> adj_;      // neighbor indices, sorted by neighbor ID per node
  std::vector<int> inc_;      // incident edge ids, aligned with adj_
  std::vector<int> edge_u_, edge_v_;
  int max_degree_ = 0;
};

/// Convenience: builds a graph from explicit IDs and ID-pairs.
Graph make_graph(const std::vector<NodeId>& ids,
                 const std::vector<std::pair<NodeId, NodeId>>& edges_by_id);

}  // namespace lad
