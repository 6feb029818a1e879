#include "local/ball.hpp"

namespace lad {

Ball extract_ball(const Graph& g, int center, int radius, const NodeMask& mask) {
  LAD_CHECK(radius >= 0);
  LAD_CHECK(center >= 0 && center < g.n());
  Ball b;
  b.radius = radius;
  const LocalBfs bfs(g, center, radius, mask);
  // The ball graph's node and edge order follow ball_nodes order.
  const auto nodes = bfs.layered();

  Graph::Builder builder;
  NodeMap ball_ix(g);
  for (const int v : nodes) {
    ball_ix.set(v, builder.add_node(g.id(v)));
    b.to_parent.push_back(v);
    b.dist.push_back(bfs.dist(v));
  }
  for (const int v : nodes) {
    for (const int u : g.neighbors(v)) {
      if (ball_ix.contains(u) && v < u) builder.add_edge(ball_ix.get(v), ball_ix.get(u));
    }
  }
  b.graph = std::move(builder).build();
  b.center = ball_ix.get(center);
  return b;
}

}  // namespace lad
