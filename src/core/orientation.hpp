// §5 — Almost-balanced orientations with 1 bit of advice per node.
//
// Construction (faithful to the paper, with the LLL existence argument
// replaced by constructive re-sampling — see DESIGN.md §2):
//
//   1. Each node locally pairs its incident edges (ID-sorted ports, pairs
//      (0,1), (2,3), ...), decomposing E(G) into the trails of the virtual
//      graph G' (cycles, plus paths when odd degrees exist). Orienting each
//      trail consistently yields |indeg - outdeg| <= 1 at every node, = 0 at
//      even-degree nodes — the paper's almost-balanced orientation.
//   2. Trails of length <= short_trail_threshold need no advice: a trail
//      node walks the whole trail and applies a canonical ID rule (the
//      paper's "largest ID on the cycle" rule).
//   3. On longer trails the schema plants directional markers roughly every
//      `spacing` trail steps (advice/trailcode.hpp); the unique direction in
//      which a marker parses *is* the trail's orientation. Marker positions
//      are re-sampled along their trails until no stray bit pollutes any
//      marked trail — the constructive counterpart of the paper's
//      Lovász-Local-Lemma shifting.
//
// Decoding is a T(Δ)-round LOCAL algorithm (independent of n): walk your own
// trails up to max(threshold, walk_limit) steps and orient.
//
// Everything both sides derive from the graph — the trails, which of them
// carry markers, the Δ-scaled marker spacing and the walk radius — comes
// from trail_schema(). The splitting schema (core/splitting.hpp) and the
// guarded trail decoders (faults/robust.hpp) take theirs from it too.
#pragma once

#include <vector>

#include "advice/trailcode.hpp"
#include "graph/checkers.hpp"
#include "graph/euler.hpp"
#include "graph/graph.hpp"

namespace lad {

/// The two knobs of the §5 schema that experiments sweep (E8, A1).
struct OrientationParams {
  /// Trails up to this length are oriented by the canonical ID rule.
  int short_trail_threshold = 40;
  /// Target spacing between markers along long trails (sparsity knob:
  /// larger spacing = sparser 1s = more decoding rounds), scaled with Δ.
  int marker_spacing = 40;
};

/// The §5 trail schema of a graph: a function of g's local port pairing,
/// Δ and OrientationParams only, so every node computes the same one.
struct TrailSchema {
  std::vector<Trail> trails;  // euler_partition(g)
  /// Per trail: 1 when longer than short_trail_threshold (it carries markers).
  std::vector<char> marked;
  int num_marked = 0;
  /// Marker code: degree_scaled_spacing of marker_spacing, plus the fixed
  /// jitter (10), re-sampling budget (50,000) and seed (12345).
  TrailCodeParams code;
  /// Decoder walk radius on a marked trail (trail_walk_limit).
  int walk_limit = 0;
};

/// The schema for markers carrying `payload_bits`-bit payloads (0 for the
/// orientation, 1 for splitting's base color). Throws ContractViolation when
/// short_trail_threshold is too small for the longest such marker.
TrailSchema trail_schema(const Graph& g, const OrientationParams& params, int payload_bits);

struct OrientationEncoding {
  std::vector<char> bits;  // uniform 1-bit advice, one bit per node
  /// The orientation the advice plants: marked trails in their as-given
  /// direction, short ones by the canonical ID rule. decode_orientation
  /// returns exactly this, since re-sampling leaves every marker that parses
  /// on a marked trail a planted forward one.
  Orientation orientation;
  int num_marked_trails = 0;
  int resample_rounds = 0;  // constructive-LLL cost paid by the encoder
};

/// Centralized prover (Definition 2's function f): computes the
/// 1-bit-per-node advice of the almost-balanced-orientation schema.
OrientationEncoding encode_orientation_advice(const Graph& g,
                                              const OrientationParams& params = {});

struct OrientationDecodeResult {
  Orientation orientation;
  /// LOCAL rounds consumed: the larger of the short-trail walk and the
  /// marker walk radius actually needed.
  int rounds = 0;
};

/// The T(Δ)-round LOCAL decoder. Every node uses only `bits` and its local
/// trail neighborhood; the simulation orients whole trails at once, which is
/// node-wise equivalent.
OrientationDecodeResult decode_orientation(const Graph& g, const std::vector<char>& bits,
                                           const OrientationParams& params = {});

}  // namespace lad
