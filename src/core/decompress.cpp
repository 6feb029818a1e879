#include "core/decompress.hpp"

#include <algorithm>

namespace lad {

std::vector<int> outgoing_edges_sorted(const Graph& g, const Orientation& o, int v) {
  std::vector<int> out;
  // incident_edges is already aligned with ID-sorted neighbors.
  const auto inc = g.incident_edges(v);
  for (const int e : inc) {
    const bool outgoing = (o[static_cast<std::size_t>(e)] == EdgeDir::kForward && g.edge_u(e) == v) ||
                          (o[static_cast<std::size_t>(e)] == EdgeDir::kBackward && g.edge_v(e) == v);
    if (outgoing) out.push_back(e);
  }
  return out;
}

CompressedEdgeSet compress_edge_set(const Graph& g, const std::vector<char>& in_x) {
  LAD_CHECK(static_cast<int>(in_x.size()) == g.m());
  auto enc = encode_orientation_advice(g);
  LAD_CHECK(is_balanced_orientation(g, enc.orientation, 1));

  CompressedEdgeSet c;
  c.orientation = std::move(enc.orientation);
  c.labels.resize(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    BitString& label = c.labels[static_cast<std::size_t>(v)];
    label.append(enc.bits[static_cast<std::size_t>(v)] != 0);
    for (const int e : outgoing_edges_sorted(g, c.orientation, v)) {
      label.append(in_x[static_cast<std::size_t>(e)] != 0);
    }
    const int budget = (g.degree(v) + 1) / 2 + 1;  // ceil(d/2) + 1
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
    const auto out = outgoing_edges_sorted(g, dec.orientation, v);
    const BitString& label = c.labels[static_cast<std::size_t>(v)];
    LAD_CHECK_MSG(label.size() == 1 + static_cast<int>(out.size()),
                  "label length mismatch at node " << g.id(v));
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (label.bit(1 + static_cast<int>(i))) res.in_x[static_cast<std::size_t>(out[i])] = 1;
    }
  }
  res.rounds = dec.rounds + 1;  // +1: tails inform heads of membership
  return res;
}

int trivial_bits_at(const Graph& g, int v) { return g.degree(v); }

}  // namespace lad
