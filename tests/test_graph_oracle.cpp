// Differential test of graph construction against the frozen comparison-sort
// builder (tests/reference_graph.hpp). Graph::Builder::build, at every pool
// size, must produce the reference's arrays exactly: ids, CSR offsets,
// adjacency, incident edges, the edge list and the ID index. So must the
// same graph after a .ladg round trip through Graph::from_parts. On bad
// input both builders must throw the same exception with the same message.
// Graph::edge_subgraph, the third construction path, must equal the
// library builder on the kept edge set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/rng.hpp"
#include "graph/source.hpp"
#include "reference_graph.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// One builder input: IDs in index order, and edges in the order added.
struct Input {
  std::string name;
  std::vector<NodeId> ids;
  std::vector<std::pair<int, int>> edges;
};

Input input_of(std::string name, const Graph& g) {
  Input in{std::move(name), {g.raw_ids().begin(), g.raw_ids().end()}, {}};
  for (int e = 0; e < g.m(); ++e) in.edges.emplace_back(g.edge_u(e), g.edge_v(e));
  return in;
}

// The same graph with its nodes renumbered, its edges shuffled and each
// edge's endpoints swapped at random: a builder sees unsorted input.
Input shuffled(const Input& in, std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(in.ids.size());
  const auto perm = rng.permutation(n);
  Input out{in.name + " shuffled", std::vector<NodeId>(in.ids.size()), {}};
  for (int v = 0; v < n; ++v) {
    out.ids[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
        in.ids[static_cast<std::size_t>(v)];
  }
  for (const auto& [u, v] : in.edges) {
    const int a = perm[static_cast<std::size_t>(u)], b = perm[static_cast<std::size_t>(v)];
    if (rng.flip(0.5)) {
      out.edges.emplace_back(a, b);
    } else {
      out.edges.emplace_back(b, a);
    }
  }
  rng.shuffle(out.edges);
  return out;
}

template <typename B>
void feed(B& b, const Input& in) {
  b.reserve(in.ids.size(), in.edges.size());
  for (const NodeId id : in.ids) b.add_node(id);
  for (const auto& [u, v] : in.edges) b.add_edge(u, v);
}

reference::Csr reference_build(const Input& in) {
  reference::Builder b;
  feed(b, in);
  return std::move(b).build(nullptr);
}

Graph library_build(const Input& in, ThreadPool* pool) {
  Graph::Builder b;
  feed(b, in);
  return std::move(b).build(pool);
}

template <typename T>
void expect_same(std::span<const T> got, const std::vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  EXPECT_TRUE(diff.first == got.end())
      << what << " differs first at " << (diff.first - got.begin()) << ": " << *diff.first
      << " vs " << *diff.second;
}

void expect_matches(const Graph& g, const reference::Csr& ref) {
  expect_same(g.raw_ids(), ref.ids_, "ids");
  expect_same(g.raw_adj_off(), ref.adj_off_, "adj_off");
  expect_same(g.raw_adj(), ref.adj_, "adj");
  expect_same(g.raw_inc(), ref.inc_, "inc");
  expect_same(g.raw_edge_u(), ref.edge_u_, "edge_u");
  expect_same(g.raw_edge_v(), ref.edge_v_, "edge_v");
  expect_same(g.nodes_by_id(), ref.by_id_ix_, "nodes_by_id");
  EXPECT_EQ(g.max_degree(), ref.max_degree_);
  for (std::size_t k = 0; k < ref.sorted_ids_.size(); ++k) {
    const auto ix = g.find_index(ref.sorted_ids_[k]);
    ASSERT_TRUE(ix.has_value()) << "ID " << ref.sorted_ids_[k];
    ASSERT_EQ(*ix, ref.by_id_ix_[k]) << "ID " << ref.sorted_ids_[k];
  }
  EXPECT_FALSE(g.find_index(0).has_value());
  if (!ref.sorted_ids_.empty() && ref.sorted_ids_.back() < std::numeric_limits<NodeId>::max()) {
    EXPECT_FALSE(g.find_index(ref.sorted_ids_.back() + 1).has_value());
  }
}

// Pools of every size the test covers, made once.
const std::vector<std::unique_ptr<ThreadPool>>& pools() {
  static const auto* all = [] {
    auto* v = new std::vector<std::unique_ptr<ThreadPool>>();
    for (const int t : {1, 2, 3, 4, 8}) v->push_back(std::make_unique<ThreadPool>(t));
    return v;
  }();
  return *all;
}

void check(const Input& in) {
  SCOPED_TRACE(in.name);
  const reference::Csr ref = reference_build(in);
  const Graph serial = library_build(in, nullptr);
  expect_matches(serial, ref);
  for (const auto& pool : pools()) {
    SCOPED_TRACE("pool of " + std::to_string(pool->threads()));
    expect_matches(library_build(in, pool.get()), ref);
  }
  const std::string path = testing::TempDir() + "graph_oracle.ladg";
  write_ladg(path, serial);
  SCOPED_TRACE(".ladg round trip");
  expect_matches(read_ladg(path), ref);
}

void check_both_orders(const Input& in, std::uint64_t seed) {
  check(in);
  check(shuffled(in, seed));
}

TEST(GraphBuildOracle, EveryGraphSourceFamily) {
  const char* specs[] = {
      "cycle:100",          "cycle:40000",      "path:50",          "path:3000",
      "grid:7x9",           "grid:120x90",      "torus:5x7",        "torus:200x200",
      "ladder:5",           "ladder:3000",      "regular:20x3",     "regular:2000x5",
      "banded:60x4x3x6",    "banded:3000x5x3x6", "twocycles:5x3",   "twocycles:400x24",
      "complete:5",         "complete:64",      "star:3",           "star:4097",
      "hypercube:3",        "hypercube:12",     "tree:10x3",        "tree:3000x4",
  };
  std::uint64_t shuffle_seed = 1;
  for (const char* spec : specs) {
    for (const char* seed : {"@1", "@2"}) {
      std::string err;
      const auto lg = load_graph_source(std::string(spec) + seed, &err);
      ASSERT_TRUE(lg.has_value()) << err;
      check_both_orders(input_of(lg->spec, lg->graph), shuffle_seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(GraphBuildOracle, EveryIdMode) {
  std::uint64_t seed = 100;
  for (const IdMode mode : {IdMode::kSequential, IdMode::kRandomDense, IdMode::kRandomSparse}) {
    const std::string tag = "mode " + std::to_string(static_cast<int>(mode));
    check_both_orders(input_of("cycle " + tag, make_cycle(3000, mode, seed)), seed);
    check_both_orders(input_of("grid " + tag, make_grid(60, 70, mode, seed + 1)), seed + 1);
    check_both_orders(input_of("planted " + tag,
                               make_planted_colorable(2000, 4, 3.0, 6, seed + 2, true, mode).graph),
                      seed + 2);
    seed += 3;
  }
  // The instance the parallel-build check of the .ladg tests used.
  check(input_of("torus 40x50", make_torus(40, 50, IdMode::kRandomDense, 9)));
}

TEST(GraphBuildOracle, IdsNearTheTopOfTheRange) {
  const Graph shape = make_random_regular(1000, 3, 7);
  Input in = input_of("IDs near 2^62", shape);
  Rng rng(8);
  const auto perm = rng.permutation(shape.n());
  for (std::size_t v = 0; v < in.ids.size(); ++v) {
    in.ids[v] = (NodeId{1} << 62) + perm[v];
  }
  check_both_orders(in, 9);

  // Every digit position differs: tiny, huge and largest IDs mixed.
  in.name = "IDs from 1 to 2^63 - 1";
  for (std::size_t v = 0; v < in.ids.size(); ++v) {
    const auto r = static_cast<NodeId>(rng.uniform(1, std::numeric_limits<NodeId>::max() / 4));
    in.ids[v] = v % 3 == 0 ? static_cast<NodeId>(v) + 1 : r * 3 + 1;
  }
  in.ids[5] = std::numeric_limits<NodeId>::max();
  in.ids[6] = (NodeId{1} << 62) - 1;
  check_both_orders(in, 10);
}

TEST(GraphBuildOracle, TinyGraphs) {
  check(Input{"n = 0", {}, {}});
  check(Input{"n = 1", {7}, {}});
  check(Input{"n = 2, no edge", {9, 4}, {}});
  check(Input{"n = 2, one edge", {9, 4}, {{1, 0}}});
  check(Input{"n = 3, path", {2, 30, 1}, {{2, 1}, {0, 1}}});
}

// The exception type and the message after the check's "— ", which drops
// the file and line of the check that threw.
template <typename F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    const std::string what = e.what();
    const std::string dash = "— ";
    const auto at = what.find(dash);
    return std::string(typeid(e).name()) + ": " +
           (at == std::string::npos ? what : what.substr(at + dash.size()));
  }
  return "no exception";
}

void expect_same_error(const Input& in) {
  SCOPED_TRACE(in.name);
  const std::string want = thrown([&] { reference_build(in); });
  ASSERT_NE(want, "no exception");
  EXPECT_EQ(thrown([&] { library_build(in, nullptr); }), want);
  for (const auto& pool : pools()) {
    EXPECT_EQ(thrown([&] { library_build(in, pool.get()); }), want)
        << "pool of " << pool->threads();
  }
}

TEST(GraphBuildOracle, ErrorsMatchTheReference) {
  expect_same_error({"duplicate ID", {5, 3, 5, 7}, {{0, 1}}});
  expect_same_error({"two duplicated IDs", {9, 4, 9, 4, 1}, {}});
  expect_same_error({"duplicate ID near 2^62",
                     {NodeId{1} << 62, 3, (NodeId{1} << 62) + 1, NodeId{1} << 62},
                     {}});
  expect_same_error({"parallel edge, same order", {1, 2, 3, 4}, {{2, 3}, {0, 1}, {2, 3}}});
  expect_same_error({"parallel edge, swapped", {1, 2, 3, 4}, {{0, 1}, {3, 2}, {1, 0}}});
  expect_same_error({"two parallel edges", {1, 2, 3, 4}, {{3, 2}, {1, 0}, {2, 3}, {0, 1}}});
  expect_same_error({"duplicate ID before parallel edge", {1, 2, 1}, {{0, 1}, {1, 0}}});
  expect_same_error({"self-loop", {1, 2, 3}, {{0, 1}, {1, 1}}});
  expect_same_error({"ID 0", {1, 0, 3}, {}});
  expect_same_error({"negative ID", {1, 2, -5}, {}});
  expect_same_error({"endpoint out of range", {1, 2}, {{0, 2}}});

  // A large graph with one parallel edge deep inside.
  Input big = input_of("parallel edge in a torus", make_torus(60, 60, IdMode::kRandomDense, 3));
  big.edges.emplace_back(big.edges[1234].second, big.edges[1234].first);
  expect_same_error(shuffled(big, 4));
}

// from_parts checks the IDs before it indexes them. Nodes 2 and 3 are
// isolated, so a bad ID there breaks no adjacency order.
TEST(GraphBuildOracle, FromPartsRejectsBadIds) {
  Graph::Builder b;
  feed(b, Input{"", {4, 8, 6, 2}, {{0, 1}}});
  const Graph g = std::move(b).build();
  auto parts_with_id = [&](NodeId id) {
    Graph::Parts p;
    p.ids.assign(g.raw_ids().begin(), g.raw_ids().end());
    p.ids[3] = id;
    p.adj_off.assign(g.raw_adj_off().begin(), g.raw_adj_off().end());
    p.adj.assign(g.raw_adj().begin(), g.raw_adj().end());
    p.inc.assign(g.raw_inc().begin(), g.raw_inc().end());
    p.edge_u.assign(g.raw_edge_u().begin(), g.raw_edge_u().end());
    p.edge_v.assign(g.raw_edge_v().begin(), g.raw_edge_v().end());
    return p;
  };
  EXPECT_EQ(graph_digest(Graph::from_parts(parts_with_id(2))), graph_digest(g));
  for (const NodeId bad : {NodeId{0}, NodeId{-3}}) {
    EXPECT_NE(thrown([&] { Graph::from_parts(parts_with_id(bad)); })
                  .find("parts: LOCAL identifiers must be positive"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(thrown([&] { Graph::from_parts(parts_with_id(6)); }).find("duplicate node ID 6"),
            std::string::npos);
}

// Graph::edge_subgraph copies the CSR of a kept edge set; it must equal the
// builders' graph of the same nodes and edges, in every array and digest.
void check_edge_subgraph(const Graph& g, const std::vector<int>& kept, const std::string& what) {
  Input in{what + ", " + std::to_string(kept.size()) + " of " + std::to_string(g.m()) +
               " edges kept",
           {g.raw_ids().begin(), g.raw_ids().end()},
           {}};
  SCOPED_TRACE(in.name);
  for (const int e : kept) in.edges.emplace_back(g.edge_u(e), g.edge_v(e));
  const Graph sub = g.edge_subgraph(kept);
  expect_matches(sub, reference_build(in));
  EXPECT_EQ(graph_digest(sub), graph_digest(library_build(in, nullptr)));
}

TEST(EdgeSubgraph, EqualsTheBuilderOnEveryGraphSourceFamily) {
  const char* specs[] = {
      "cycle:100",  "path:50",      "grid:7x9",        "torus:12x10",   "ladder:40",
      "regular:200x5", "banded:300x5x3x6", "twocycles:60x8", "complete:9", "star:30",
      "hypercube:6", "tree:200x4",
  };
  Rng rng(11);
  for (const char* spec : specs) {
    for (const char* seed : {"@1", "@2"}) {
      std::string err;
      const auto lg = load_graph_source(std::string(spec) + seed, &err);
      ASSERT_TRUE(lg.has_value()) << err;
      const Graph& g = lg->graph;
      std::vector<int> all(static_cast<std::size_t>(g.m()));
      for (int e = 0; e < g.m(); ++e) all[static_cast<std::size_t>(e)] = e;
      check_edge_subgraph(g, {}, lg->spec + " empty");
      check_edge_subgraph(g, all, lg->spec + " full");
      for (const double p : {0.1, 0.5, 0.9}) {
        std::vector<int> kept;
        for (const int e : all) {
          if (rng.flip(p)) kept.push_back(e);
        }
        check_edge_subgraph(g, kept, lg->spec + " random");
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EdgeSubgraph, RejectsUnsortedOrOutOfRangeEdges) {
  const Graph g = make_cycle(6, IdMode::kSequential, 1);
  const std::vector<std::vector<int>> bad_sets = {{2, 1}, {0, 0}, {-1}, {6}};
  for (const std::vector<int>& bad : bad_sets) {
    EXPECT_NE(thrown([&] { (void)g.edge_subgraph(bad); }).find("strictly ascending"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace lad
