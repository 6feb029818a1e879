// §1.5 / Contribution 4 — distributed decompression of an arbitrary edge set.
//
// Trivially, recovering an arbitrary X ⊆ E needs |E| bits in total, i.e. at
// least d/2 bits per node in d-regular graphs. The schema here matches that
// within +1: store one bit of orientation advice plus an outdegree-length
// membership vector at every node. Since the almost-balanced orientation
// gives outdegree <= ceil(d/2), a degree-d node stores at most
// ceil(d/2) + 1 bits, and X is decompressed locally in T(Δ) rounds
// (orientation decoding + one round to inform edge heads).
#pragma once

#include <vector>

#include "advice/advice.hpp"
#include "core/orientation.hpp"
#include "graph/graph.hpp"

namespace lad {

struct CompressedEdgeSet {
  /// Per-node label: [orientation advice bit] ++ [membership bit of each
  /// outgoing edge, heads ordered by ID]. Length = 1 + outdeg(v).
  Advice labels;
  /// The orientation the labels were written under: the encoder's planted
  /// one, which decompression recovers. decompress_edge_set reads only
  /// `labels`.
  Orientation orientation;
};

/// Centralized compressor for an arbitrary X ⊆ E (in_x indexed by edge),
/// over the default §5 orientation schema.
CompressedEdgeSet compress_edge_set(const Graph& g, const std::vector<char>& in_x);

struct DecompressResult {
  std::vector<char> in_x;  // recovered membership, indexed by edge
  int rounds = 0;
};

/// LOCAL decompressor: decodes the orientation from the first label bits,
/// then every node reads off its outgoing-edge memberships and informs the
/// heads in one extra round.
DecompressResult decompress_edge_set(const Graph& g, const CompressedEdgeSet& c);

/// True iff edge e, incident to v, leaves v under orientation o. v's
/// membership bits follow its outgoing edges in incident_edges(v) order,
/// which is the order of the heads' IDs.
inline bool is_outgoing(const Graph& g, const Orientation& o, int e, int v) {
  const EdgeDir dir = o[static_cast<std::size_t>(e)];
  return (dir == EdgeDir::kForward && g.edge_u(e) == v) ||
         (dir == EdgeDir::kBackward && g.edge_v(e) == v);
}

/// Bits the trivial encoding (one bit per incident edge) stores at v.
int trivial_bits_at(const Graph& g, int v);

}  // namespace lad
