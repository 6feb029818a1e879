// Connected components, optionally of a masked induced subgraph.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace lad {

struct Components {
  /// comp_of[v] is the component id of v, or -1 for nodes outside the mask.
  std::vector<int> comp_of;
  /// members[c] lists the nodes of component c.
  std::vector<std::vector<int>> members;

  int count() const { return static_cast<int>(members.size()); }
};

/// Computes connected components of g restricted to `mask` (all nodes when
/// the mask is empty).
Components connected_components(const Graph& g, const NodeMask& mask = {});

/// Mask covering exactly one component.
NodeMask component_mask(const Graph& g, const Components& comps, int c);

/// Proper 2-coloring by one BFS sweep: each component is rooted at its
/// first node in `order`, which must list every node, and v gets color
/// 1 + (depth of v) mod 2. The root fixes the coloring, so `nodes_by_id()`
/// gives the canonical one (the smallest ID colored 1) and `nodes()` the
/// one rooted at the smallest index. nullopt if some component has an odd
/// cycle.
std::optional<std::vector<int>> two_coloring(const Graph& g, std::span<const int> order);
std::optional<std::vector<int>> two_coloring(const Graph& g, Graph::NodeRange order);

}  // namespace lad
