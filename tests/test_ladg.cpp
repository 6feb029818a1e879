// The .ladg binary graph format (graph/io.hpp, DESIGN.md §12): round-trip
// byte-identity through the digest, and corruption rejection. Construction
// at every pool size, through a .ladg round trip too, is checked against
// the frozen builder in test_graph_oracle.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace lad {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Ladg, RoundTripDigestEquality) {
  const Graph g = make_grid(9, 7, IdMode::kRandomSparse, 11);
  const std::string path = temp_path("ladg_roundtrip.ladg");
  write_ladg(path, g);
  const Graph back = read_ladg(path);

  // The digest is CSR byte-identity: same ids, offsets, adjacency.
  EXPECT_EQ(graph_digest(g), graph_digest(back));
  EXPECT_EQ(graph_digest_hex(g), graph_digest_hex(back));
  ASSERT_EQ(g.n(), back.n());
  ASSERT_EQ(g.m(), back.m());
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_EQ(g.id(v), back.id(v));
    const auto na = g.neighbors(v);
    const auto nb = back.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t p = 0; p < na.size(); ++p) EXPECT_EQ(na[p], nb[p]);
  }
  for (int e = 0; e < g.m(); ++e) {
    EXPECT_EQ(g.edge_u(e), back.edge_u(e));
    EXPECT_EQ(g.edge_v(e), back.edge_v(e));
  }
}

TEST(Ladg, RoundTripUnalignedAdjOff) {
  // Even n makes adj_off (n+1)*4 bytes — not a multiple of 8 — so the
  // writer's streaming digest must carry partial words across array
  // boundaries to match the reader's whole-body fold.
  const Graph g = make_cycle(4096, IdMode::kRandomDense, 1);
  const std::string path = temp_path("ladg_unaligned.ladg");
  write_ladg(path, g);
  EXPECT_EQ(graph_digest(read_ladg(path)), graph_digest(g));
}

TEST(Ladg, RoundTripSingleNodeNoEdges) {
  const Graph g = make_path(1);
  const std::string path = temp_path("ladg_single.ladg");
  write_ladg(path, g);
  const Graph back = read_ladg(path);
  EXPECT_EQ(back.n(), 1);
  EXPECT_EQ(back.m(), 0);
  EXPECT_EQ(graph_digest(g), graph_digest(back));
}

TEST(Ladg, MissingFileThrows) {
  EXPECT_THROW(read_ladg(temp_path("ladg_does_not_exist.ladg")), GraphIoError);
}

TEST(Ladg, TruncatedThrows) {
  const Graph g = make_cycle(32, IdMode::kRandomDense, 3);
  const std::string path = temp_path("ladg_truncated.ladg");
  write_ladg(path, g);
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 9);  // cut into the digest footer and beyond
  dump(path, bytes);
  EXPECT_THROW(read_ladg(path), GraphIoError);

  bytes.resize(16);  // shorter than the fixed header
  dump(path, bytes);
  EXPECT_THROW(read_ladg(path), GraphIoError);
}

TEST(Ladg, BadMagicThrows) {
  const Graph g = make_cycle(16);
  const std::string path = temp_path("ladg_badmagic.ladg");
  write_ladg(path, g);
  auto bytes = slurp(path);
  bytes[0] = 'X';
  dump(path, bytes);
  EXPECT_THROW(read_ladg(path), GraphIoError);
}

TEST(Ladg, BadVersionThrows) {
  const Graph g = make_cycle(16);
  const std::string path = temp_path("ladg_badversion.ladg");
  write_ladg(path, g);
  auto bytes = slurp(path);
  bytes[4] = 99;  // version field, little-endian u32 at offset 4
  dump(path, bytes);
  EXPECT_THROW(read_ladg(path), GraphIoError);
}

TEST(Ladg, PayloadCorruptionFailsDigestFooter) {
  const Graph g = make_cycle(64, IdMode::kRandomDense, 5);
  const std::string path = temp_path("ladg_corrupt.ladg");
  write_ladg(path, g);
  auto bytes = slurp(path);
  // Flip one byte in the middle of the payload: the size and header stay
  // plausible, so only the digest footer can catch it.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  dump(path, bytes);
  EXPECT_THROW(read_ladg(path), GraphIoError);
}

}  // namespace
}  // namespace lad
