#include "core/decompress.hpp"

namespace lad {

CompressedEdgeSet compress_edge_set(const Graph& g, const std::vector<char>& in_x) {
  LAD_CHECK(static_cast<int>(in_x.size()) == g.m());
  auto enc = encode_orientation_advice(g);
  LAD_CHECK(is_balanced_orientation(g, enc.orientation, 1));

  CompressedEdgeSet c;
  c.orientation = std::move(enc.orientation);
  c.labels.resize(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    BitString& label = c.labels[static_cast<std::size_t>(v)];
    const int budget = (g.degree(v) + 1) / 2 + 1;  // ceil(d/2) + 1
    label.reserve(budget);
    label.append(enc.bits[static_cast<std::size_t>(v)] != 0);
    for (const int e : g.incident_edges(v)) {
      if (is_outgoing(g, c.orientation, e, v)) label.append(in_x[static_cast<std::size_t>(e)] != 0);
    }
    LAD_CHECK_MSG(label.size() <= budget, "compressed label exceeds ceil(d/2)+1 bits");
  }
  return c;
}

DecompressResult decompress_edge_set(const Graph& g, const CompressedEdgeSet& c) {
  LAD_CHECK(static_cast<int>(c.labels.size()) == g.n());
  std::vector<char> advice_bits(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    const BitString& label = c.labels[static_cast<std::size_t>(v)];
    LAD_CHECK_MSG(!label.empty(), "empty compressed label at node " << g.id(v));
    advice_bits[static_cast<std::size_t>(v)] = label.bit(0);
  }
  const auto dec = decode_orientation(g, advice_bits);

  DecompressResult res;
  res.in_x.assign(static_cast<std::size_t>(g.m()), 0);
  for (int v = 0; v < g.n(); ++v) {
    const BitString& label = c.labels[static_cast<std::size_t>(v)];
    int i = 1;  // the label bit of v's next outgoing edge
    for (const int e : g.incident_edges(v)) {
      if (!is_outgoing(g, dec.orientation, e, v)) continue;
      if (i < label.size() && label.bit(i)) res.in_x[static_cast<std::size_t>(e)] = 1;
      ++i;
    }
    LAD_CHECK_MSG(label.size() == i, "label length mismatch at node " << g.id(v));
  }
  res.rounds = dec.rounds + 1;  // +1: tails inform heads of membership
  return res;
}

int trivial_bits_at(const Graph& g, int v) { return g.degree(v); }

}  // namespace lad
