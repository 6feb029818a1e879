#include <gtest/gtest.h>

#include "advice/schema.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

TEST(Schema, PackUnpackEntries) {
  std::vector<SchemaEntry> entries;
  entries.push_back({0, 17, BitString::parse("1011")});
  entries.push_back({3, 1, BitString{}});
  entries.push_back({1, 999999, BitString::parse("0")});
  const auto packed = pack_entries(entries);
  const auto back = unpack_entries(packed);
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) EXPECT_EQ(back[i], entries[i]);
}

TEST(Schema, PackEmpty) {
  const auto packed = pack_entries({});
  EXPECT_TRUE(unpack_entries(packed).empty());
}

TEST(Schema, UnpackRejectsTrailingBits) {
  auto packed = pack_entries({{0, 5, BitString::parse("1")}});
  packed.append(false);
  EXPECT_THROW(unpack_entries(packed), ContractViolation);
}

TEST(Schema, ComposeKeepsSchemaIds) {
  const Graph g = make_path(30);
  VarAdvice a, b;
  a[2].push_back({4, g.id(2), BitString::parse("1")});
  b[20].push_back({7, g.id(20), BitString::parse("0")});
  const auto composed = compose_schemas(g, {a, b}, 5);
  ASSERT_EQ(composed.size(), 2u);
  EXPECT_EQ(composed.at(2)[0].schema_id, 4);
  EXPECT_EQ(composed.at(20)[0].schema_id, 7);
}

TEST(Schema, ComposeRelocatesCloseStorage) {
  const Graph g = make_path(30);
  VarAdvice a, b;
  a[10].push_back({0, g.id(10), BitString::parse("1")});
  b[12].push_back({0, g.id(12), BitString::parse("0")});
  const auto composed = compose_schemas(g, {a, b}, 8);
  // Storage nodes must now be >= 8 apart: everything merged into one node.
  ASSERT_EQ(composed.size(), 1u);
  const auto& entries = composed.begin()->second;
  ASSERT_EQ(entries.size(), 2u);
  // Anchor IDs survive relocation, so nothing is lost.
  std::set<NodeId> anchors = {entries[0].anchor_id, entries[1].anchor_id};
  EXPECT_TRUE(anchors.count(g.id(10)));
  EXPECT_TRUE(anchors.count(g.id(12)));

  // A tie goes to the node kept first: on the path 0-1-2-3-4, node 2 (ID 9,
  // placed last) is at distance 2 from both kept nodes 0 (ID 1) and 4 (ID 4).
  Graph::Builder builder;
  for (const NodeId id : {1, 2, 9, 3, 4}) builder.add_node(id);
  for (int v = 0; v + 1 < 5; ++v) builder.add_edge(v, v + 1);
  const Graph p = std::move(builder).build();
  VarAdvice c;
  for (const int v : {0, 2, 4}) c[v].push_back({0, p.id(v), BitString::parse("1")});
  const auto tied = compose_schemas(p, {c}, 3);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied.at(0).size(), 2u);
  EXPECT_EQ(tied.at(4).size(), 1u);
}

TEST(Schema, ComposeKeepsSeparation) {
  const Graph g = make_cycle(100);
  VarAdvice a;
  for (int v = 0; v < 100; v += 7) {
    a[v].push_back({0, g.id(v), BitString::parse("11")});
  }
  const int sep = 15;
  const auto composed = compose_schemas(g, {a}, sep);
  std::vector<int> storage;
  for (const auto& [node, _] : composed) storage.push_back(node);
  for (std::size_t i = 0; i < storage.size(); ++i) {
    for (std::size_t j = i + 1; j < storage.size(); ++j) {
      EXPECT_GE(distance(g, storage[i], storage[j]), sep);
    }
  }
  // All entries preserved.
  std::size_t total = 0;
  for (const auto& [node, entries] : composed) total += entries.size();
  EXPECT_EQ(total, a.size());
}

TEST(Schema, PackVarAdviceRoundTrip) {
  const Graph g = make_path(10);
  VarAdvice a;
  a[1].push_back({2, g.id(4), BitString::parse("110")});
  a[8].push_back({0, g.id(8), BitString{}});
  const auto packed = pack_var_advice(a);
  const auto back = unpack_var_advice(packed);
  EXPECT_EQ(back.size(), a.size());
  EXPECT_EQ(back.at(1)[0], a.at(1)[0]);
  EXPECT_EQ(back.at(8)[0], a.at(8)[0]);
}

}  // namespace
}  // namespace lad
