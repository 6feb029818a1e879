#include "local/gather.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "graph/canonical.hpp"
#include "graph/distance.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Flooding state per node: known node IDs and known edges (as ID pairs).
struct Knowledge {
  std::set<NodeId> nodes;
  std::set<std::pair<NodeId, NodeId>> edges;

  std::string serialize() const {
    std::ostringstream os;
    os << nodes.size() << ' ';
    for (const auto id : nodes) os << id << ' ';
    os << edges.size() << ' ';
    for (const auto& [a, b] : edges) os << a << ' ' << b << ' ';
    std::string s = os.str();
    // Ball-gather allocation accounting (obs/profile.*): one serialized
    // knowledge buffer per flooding send. The multiset of increments is a
    // pure function of the gather, so the totals stay byte-deterministic
    // at any thread count (the profile's gather allocation column).
    LAD_TM({
      obs::core().alloc_gather.add(1);
      obs::core().alloc_gather_bytes.add(static_cast<long long>(s.size()));
    });
    return s;
  }

  void merge_serialized(std::string_view s) {
    std::istringstream is{std::string(s)};
    std::size_t nn = 0, ne = 0;
    is >> nn;
    for (std::size_t i = 0; i < nn; ++i) {
      NodeId id = 0;
      is >> id;
      nodes.insert(id);
    }
    is >> ne;
    for (std::size_t i = 0; i < ne; ++i) {
      NodeId a = 0, b = 0;
      is >> a >> b;
      edges.insert({a, b});
    }
  }
};

class GatherAlgorithm : public SyncAlgorithm {
 public:
  explicit GatherAlgorithm(int radius) : radius_(radius) {}

  void init(const Graph& g) override {
    know_.assign(static_cast<std::size_t>(g.n()), {});
    for (int v = 0; v < g.n(); ++v) {
      auto& k = know_[static_cast<std::size_t>(v)];
      k.nodes.insert(g.id(v));
      // A node initially knows its incident edges (neighbor IDs via ports).
      for (const int u : g.neighbors(v)) {
        k.nodes.insert(g.id(u));
        k.edges.insert({std::min(g.id(v), g.id(u)), std::max(g.id(v), g.id(u))});
      }
    }
  }

  void round(NodeCtx& ctx) override {
    auto& k = know_[static_cast<std::size_t>(ctx.node())];
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.has_message(p)) k.merge_serialized(ctx.received(p));
    }
    if (ctx.round_number() > radius_) {
      ctx.halt(k.serialize());
      return;
    }
    ctx.broadcast(k.serialize());
  }

  const Knowledge& knowledge(int v) const { return know_[static_cast<std::size_t>(v)]; }

 private:
  int radius_;
  std::vector<Knowledge> know_;
};

// Reconstructs node v's radius-t ball from its flooded knowledge: build a
// graph from the known edges, cut the ball, re-anchor to parent indices.
Ball reconstruct_ball(const Graph& g, const Knowledge& k, int v, int radius) {
  std::map<NodeId, int> ix;
  Graph::Builder b;
  for (const auto id : k.nodes) ix[id] = b.add_node(id);
  for (const auto& [a, c] : k.edges) b.add_edge(ix.at(a), ix.at(c));
  const Graph known = std::move(b).build();
  const auto center = known.find_index(g.id(v));
  LAD_CHECK_MSG(center.has_value(), "flooded knowledge is missing its own center node");
  const Ball ball = extract_ball(known, *center, radius);

  Ball out;
  out.radius = radius;
  Graph::Builder ob;
  for (int i = 0; i < ball.graph.n(); ++i) ob.add_node(ball.graph.id(i));
  for (int e = 0; e < ball.graph.m(); ++e) ob.add_edge(ball.graph.edge_u(e), ball.graph.edge_v(e));
  out.graph = std::move(ob).build();
  out.center = ball.center;
  out.dist = ball.dist;
  for (int i = 0; i < ball.graph.n(); ++i) {
    const auto parent = g.find_index(ball.graph.id(i));
    LAD_CHECK_MSG(parent.has_value(), "ball node missing from its parent graph");
    out.to_parent.push_back(*parent);
  }
  return out;
}

}  // namespace

std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius, ThreadPool* pool) {
  LAD_TM_SPAN(span, "gather.balls", "gather");
  GatherAlgorithm alg(radius);
  Engine eng(g);
  eng.set_thread_pool(pool);
  const auto run = eng.run(alg, radius + 2);
  LAD_CHECK(run.all_halted);

  // After t+1 rounds a node knows edges incident to nodes at distance <= t;
  // restrict to the induced radius-t ball. Each reconstruction writes only
  // its own slot, so the fan-out is deterministic at any thread count.
  std::vector<Ball> balls(static_cast<std::size_t>(g.n()));
  auto build = [&](int v) {
    balls[static_cast<std::size_t>(v)] = reconstruct_ball(g, alg.knowledge(v), v, radius);
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->for_each(g.n(), build);
  } else {
    for (int v = 0; v < g.n(); ++v) build(v);
  }
  LAD_TM(obs::core().gather_balls.add(g.n()));
  return balls;
}

CanonicalViews gather_canonical_views(const Graph& g, int radius, const std::vector<int>& labels,
                                      ThreadPool* pool) {
  LAD_TM_SPAN(span, "gather.views", "gather");
  LAD_CHECK(labels.empty() || static_cast<int>(labels.size()) == g.n());
  // Canonicalization is per-node work on per-node slots; interning stays
  // serial in node order so class ids never depend on the thread count.
  std::vector<std::string> keys(static_cast<std::size_t>(g.n()));
  auto canon = [&](int v) {
    const Ball ball = extract_ball(g, v, radius);
    std::vector<int> ball_labels;
    if (!labels.empty()) {
      ball_labels.reserve(ball.to_parent.size());
      for (const int p : ball.to_parent) {
        ball_labels.push_back(labels[static_cast<std::size_t>(p)]);
      }
    }
    keys[static_cast<std::size_t>(v)] =
        canonical_view(ball.graph, ball.graph.nodes_by_id(), ball.center, ball_labels);
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->for_each(g.n(), canon);
  } else {
    for (int v = 0; v < g.n(); ++v) canon(v);
  }

  CanonicalViews views;
  views.view_class.assign(static_cast<std::size_t>(g.n()), -1);
  std::unordered_map<std::string, int> intern;
  for (int v = 0; v < g.n(); ++v) {
    auto& key = keys[static_cast<std::size_t>(v)];
    const auto [it, inserted] = intern.emplace(key, views.distinct());
    if (inserted) {
      views.key.push_back(std::move(key));
      views.representative.push_back(v);
    } else {
      ++views.memo_hits;
    }
    views.view_class[static_cast<std::size_t>(v)] = it->second;
  }
  // Hits/misses come from the serial interning loop, so they are identical
  // at every thread count (the §8 memo-effectiveness metric).
  LAD_TM({
    obs::core().gather_cache_hits.add(views.memo_hits);
    obs::core().gather_cache_misses.add(views.distinct());
  });
  return views;
}

namespace {

class BfsAlgorithm : public SyncAlgorithm {
 public:
  BfsAlgorithm(int source, DistributedBfsResult& out) : source_(source), out_(out) {}

  void init(const Graph& g) override {
    g_ = &g;
    out_.dist.assign(static_cast<std::size_t>(g.n()), kUnreachable);
    out_.parent.assign(static_cast<std::size_t>(g.n()), -1);
  }

  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    auto& d = out_.dist[static_cast<std::size_t>(v)];
    if (ctx.round_number() == 1) {
      if (v == source_) {
        d = 0;
        ctx.broadcast("0");
      }
      return;
    }
    bool announced = false;
    if (d == kUnreachable) {
      for (int p = 0; p < ctx.degree(); ++p) {
        if (!ctx.has_message(p)) continue;
        const int du = std::stoi(std::string(ctx.received(p)));
        if (d == kUnreachable || du + 1 < d) {
          d = du + 1;
          out_.parent[static_cast<std::size_t>(v)] = g_->neighbors(v)[p];
        }
      }
      if (d != kUnreachable) {
        ctx.broadcast(std::to_string(d));
        announced = true;
      }
    }
    // Termination: nodes cannot know the diameter, so the driver bounds the
    // rounds; halt once settled and already announced.
    if (d != kUnreachable && !announced) ctx.halt(std::to_string(d));
  }

 private:
  int source_;
  DistributedBfsResult& out_;
  const Graph* g_ = nullptr;
};

}  // namespace

DistributedBfsResult bfs_by_messages(const Graph& g, int source) {
  DistributedBfsResult out;
  BfsAlgorithm alg(source, out);
  Engine eng(g);
  const auto run = eng.run(alg, g.n() + 3);
  out.rounds = run.rounds;
  return out;
}

}  // namespace lad
