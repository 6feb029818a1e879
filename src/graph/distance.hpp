// BFS-based distance utilities, with optional restriction to a node subset.
//
// Several constructions in the paper operate "within" an induced subgraph
// (a component of G_{2,3}, the not-yet-clustered graph G_i, ...). All
// functions here accept an optional mask: when given, only nodes v with
// mask[v] != 0 exist for the traversal.
//
// Cost contract (DESIGN.md §14): every query except bfs_distances(_multi)
// is ball-local — it costs O(nodes reached + their degrees), never Θ(n).
// All of them run on LocalBfs, a frontier BFS over per-thread scratch whose
// entries are valid only under the current epoch stamp, so starting a query
// clears nothing. bfs_distances(_multi) copy its distances into an n-sized
// array, returned by contract, so they stay Θ(n); use them only where
// distances to arbitrary nodes are needed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lad {

/// Node mask: mask[v] != 0 means v participates. An empty vector means all.
using NodeMask = std::vector<char>;

constexpr int kUnreachable = -1;

namespace detail {

/// One scratch slot: an int per node, valid where its stamp == epoch, plus
/// a reusable node list. Stamp and value sit side by side, so a BFS step
/// touches one cache line per node. Slots live in a per-thread stack
/// (distance.cpp).
struct ScratchSlot {
  struct Entry {
    std::uint32_t stamp = 0;
    int value = 0;
  };
  std::vector<Entry> entries;
  std::vector<int> list;
  std::uint32_t epoch = 0;
};

/// Sets the epoch of every scratch slot of the calling thread; lets a test
/// drive the epoch to its wraparound. Moving an epoch backwards can make
/// stale stamps read as set until they are overwritten.
void set_scratch_epoch_for_testing(std::uint32_t epoch);

}  // namespace detail

/// An int per node, unset by default, over per-thread epoch-stamped scratch:
/// construction clears nothing, so a query that touches k nodes costs O(k)
/// whatever n is. Instances on one thread may nest — each takes its own
/// slot — and must be destroyed in reverse order of construction, which
/// scoped locals are. Not copyable or movable; never hand one to another
/// thread.
class NodeMap {
 public:
  explicit NodeMap(const Graph& g);
  ~NodeMap();
  NodeMap(const NodeMap&) = delete;
  NodeMap& operator=(const NodeMap&) = delete;

  bool contains(int v) const { return entry(v).stamp == slot_->epoch; }
  /// The value set for v, or `fallback` when v is unset.
  int get(int v, int fallback = kUnreachable) const {
    const detail::ScratchSlot::Entry& e = entry(v);
    return e.stamp == slot_->epoch ? e.value : fallback;
  }
  void set(int v, int value) {
    slot_->entries[static_cast<std::size_t>(v)] = {slot_->epoch, value};
  }
  /// Sets v to `value` unless v is set; true when it was not.
  bool insert(int v, int value = 1) {
    if (contains(v)) return false;
    set(v, value);
    return true;
  }

 protected:
  detail::ScratchSlot* slot_;

 private:
  const detail::ScratchSlot::Entry& entry(int v) const {
    return slot_->entries[static_cast<std::size_t>(v)];
  }
};

/// The ball-local BFS kernel: a multi-source, radius-capped (radius < 0:
/// uncapped), masked frontier BFS that touches only the nodes it reaches.
/// With `stop_at` non-empty it stops after the first BFS layer at whose end
/// every listed node is reached; distances of reached nodes are exact
/// either way. Nesting and lifetime rules are NodeMap's.
class LocalBfs : private NodeMap {
 public:
  LocalBfs(const Graph& g, std::span<const int> sources, int radius = -1,
           const NodeMask& mask = {}, std::span<const int> stop_at = {});
  LocalBfs(const Graph& g, int source, int radius = -1, const NodeMask& mask = {},
           std::span<const int> stop_at = {})
      : LocalBfs(g, std::span<const int>(&source, 1), radius, mask, stop_at) {}

  /// Reached nodes in discovery order: nondecreasing distance, but within a
  /// layer in FIFO order, not index order. Valid while *this lives.
  std::span<const int> nodes() const { return slot_->list; }
  bool reached(int v) const { return contains(v); }
  /// Distance from the nearest source; kUnreachable if not reached.
  int dist(int v) const { return get(v); }
  /// Largest distance reached; -1 when nothing was (no sources).
  int depth() const { return depth_; }
  /// nodes() in ball_nodes order: by layer, ascending index within a layer.
  std::vector<int> layered() const;

 private:
  int n_;
  int depth_ = -1;
};

/// Distances from `source` (capped at max_dist when >= 0); kUnreachable
/// marks nodes outside the cap / mask / component. Θ(n): n-sized result.
std::vector<int> bfs_distances(const Graph& g, int source, const NodeMask& mask = {},
                               int max_dist = -1);

/// Multi-source BFS distances. Θ(n): n-sized result.
std::vector<int> bfs_distances_multi(const Graph& g, const std::vector<int>& sources,
                                     const NodeMask& mask = {}, int max_dist = -1);

/// Nodes at distance <= radius from v (the ball N_<=radius(v)), by BFS layer
/// and ascending index within a layer. radius < 0 means uncapped: the whole
/// (masked) component of v.
std::vector<int> ball_nodes(const Graph& g, int v, int radius, const NodeMask& mask = {});

/// Distance between u and v, kUnreachable if disconnected (within mask).
/// The BFS stops at v's layer.
int distance(const Graph& g, int u, int v, const NodeMask& mask = {});

/// One shortest u-v path (node sequence, u first); empty if disconnected.
std::vector<int> shortest_path(const Graph& g, int u, int v, const NodeMask& mask = {});

/// Eccentricity of v within its (masked) component.
int eccentricity(const Graph& g, int v, const NodeMask& mask = {});

/// Whether the (masked) component containing v has diameter <= bound.
/// Decides from the double-sweep bounds ecc(v) <= diam <= 2·ecc(v) where
/// they suffice, and otherwise checks every member's eccentricity with BFSes
/// capped at bound + 1.
bool diameter_at_most(const Graph& g, int v, int bound, const NodeMask& mask = {});

}  // namespace lad
