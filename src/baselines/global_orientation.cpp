#include "baselines/global_orientation.hpp"

#include <algorithm>

#include "graph/euler.hpp"

namespace lad {

GlobalOrientationResult orient_without_advice(const Graph& g) {
  const auto trails = euler_partition(g);
  GlobalOrientationResult res;
  res.orientation.assign(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  for (const auto& t : trails) {
    orient_trail(g, t, canonical_trail_direction(g, t) ? +1 : -1, res.orientation);
    res.rounds = std::max(res.rounds, t.length());
  }
  return res;
}

}  // namespace lad
