// Reusable message-passing building blocks on the Engine.
//
// gather_balls_by_messages is the operational proof of the view API: t+1
// rounds of flooding reconstruct exactly the radius-t balls that
// local/ball.hpp extracts combinatorially (the classical LOCAL
// equivalence). bfs_by_messages is the standard distributed BFS.
//
// Both gathers take an optional ThreadPool and fan their per-node work (the
// heavy, embarrassingly parallel part) out over it with byte-identical
// results; gather_canonical_views adds the §8 order-invariance memo: a
// cache keyed by the canonical form of each ball, so any view-based decoder
// that is order-invariant needs to be evaluated once per *distinct* view
// instead of once per node (on structured families — cycles, grids, tori —
// the distinct-view count is O(1), not O(n)).
#pragma once

#include <string>
#include <vector>

#include "local/ball.hpp"
#include "local/engine.hpp"

namespace lad {

class ThreadPool;

/// Runs a flooding algorithm for radius+1 rounds and reconstructs each
/// node's radius-`radius` ball from the messages alone. With a pool of more
/// than one thread the flooding compute phase and the per-node ball
/// reconstruction fan out over it; the result is byte-identical.
std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius,
                                           ThreadPool* pool = nullptr);

/// Canonical-ball memo: per-node radius-t views interned by canonical form.
struct CanonicalViews {
  /// Node -> dense class id. Class ids are assigned in ascending node order
  /// of first appearance, so they are deterministic at any thread count.
  std::vector<int> view_class;
  /// Class id -> canonical key (graph/canonical.hpp).
  std::vector<std::string> key;
  /// Class id -> smallest node index with that view (the memo
  /// representative: evaluate an order-invariant decoder here, broadcast to
  /// the class).
  std::vector<int> representative;
  /// Nodes whose view was already interned = n - distinct views.
  long long memo_hits = 0;

  int distinct() const { return static_cast<int>(key.size()); }
};

/// Extracts every node's radius-`radius` ball, canonicalizes it (optionally
/// with per-node input `labels`), and interns the keys. Ball extraction and
/// canonicalization fan out over `pool` when given; interning is serial in
/// node order, so the classes are deterministic.
CanonicalViews gather_canonical_views(const Graph& g, int radius,
                                      const std::vector<int>& labels = {},
                                      ThreadPool* pool = nullptr);

struct DistributedBfsResult {
  std::vector<int> dist;    // kUnreachable outside the source's component
  std::vector<int> parent;  // BFS parent (-1 for source/unreached)
  int rounds = 0;
};

/// Single-source BFS as a message-passing algorithm.
DistributedBfsResult bfs_by_messages(const Graph& g, int source);

}  // namespace lad
