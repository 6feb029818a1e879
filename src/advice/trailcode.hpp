// 1-bit-per-node marker codes written *along trails* (§5's encoding).
//
// The §5 schema stores the orientation of each long cycle/path of the
// virtual graph G' in single bits placed on nodes of that trail. We write
// the self-delimiting code
//
//   B'' = 11110110 · map(0 -> 110, 1 -> 1110 over payload) · 0
//
// onto consecutive trail positions. Two facts make decoding unambiguous:
//   * "1111" occurs only at the start of B'' and the reverse of B'' never
//     contains "11110110", so a marker parses in exactly one direction —
//     the direction in which the encoder wrote it. The read direction is
//     therefore itself one bit of information (it pins the trail
//     orientation) even when the payload is empty.
//   * Stray 1s (the same node can occur on several trails, and every node
//     carries a globally visible bit) are eliminated constructively: the
//     encoder re-samples segment positions along their trails until no two
//     segments share a node and no marker parses on a marked trail except
//     the planted ones — the algorithmic counterpart of the paper's
//     Lovász-Local-Lemma shifting argument. As in the algorithmic LLL, a
//     round re-checks only what its moves touched: the offender set is kept
//     up to date in flat per-node and per-position arrays, and only the parse
//     windows around the nodes whose bits a move flipped, on every marked
//     trail through them, are re-parsed.
//
// Markers may carry a per-segment payload (computed from the segment's
// start position), used e.g. by the splitting schema to ship the 2-coloring
// of the marker's start node.
//
// Two decoders read the markers back under one selection rule: among the
// markers lying wholly within walk_limit steps of a position, the one with
// the smallest |offset| + length wins, and markers read in opposite
// directions leave the position undecoded. decode_trail_mark answers one
// position by scanning its window; decode_trail_marks answers every position
// of a trail from one parse of the whole trail.
//
// This layer takes its parameters from the caller. The §5 schemas take
// theirs from one place, trail_schema() in core/orientation.hpp: the
// Δ-scaled spacing, the walk limit, and the fixed jitter, re-sampling
// budget and seed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "advice/bitstring.hpp"
#include "graph/euler.hpp"
#include "graph/graph.hpp"

namespace lad {

struct TrailCodeParams {
  /// Nominal distance between consecutive segment starts on a trail.
  /// Sparsity knob: larger spacing = sparser 1s = larger decoding radius.
  int spacing = 40;
  /// Segments may be shifted up to +- jitter during re-sampling.
  int jitter = 10;
  /// Re-sampling budget before the encoder gives up.
  int max_resample_rounds = 50000;
  std::uint64_t seed = 987654321;
};

struct TrailCode {
  std::vector<char> bits;  // one bit per node of g
  /// Trail-walk distance within which every position of a marked trail is
  /// guaranteed to see (and successfully parse) a complete marker.
  int walk_limit = 0;
  /// Re-sampling rounds the encoder needed (the constructive LLL cost).
  int resample_rounds = 0;
};

struct TrailDecode {
  /// +1: marker read in the trail's as-given direction; -1: reversed.
  int direction = 0;
  BitString payload;
  /// Absolute trail position of the marker's first bit (normalized to
  /// [0, positions) for closed trails).
  int marker_start = 0;
  /// Trail steps walked until the marker was fully read.
  int steps = 0;
};

/// Encoded marker length for a payload.
int trail_marker_length(const BitString& payload);

/// The walk radius the decoder needs, as a function of the parameters and
/// the longest marker; both encoder and decoder derive it from here.
int trail_walk_limit(const TrailCodeParams& params, int max_marker_len);

/// Marker spacing scaled with the maximum degree: a node of degree d occurs
/// ceil(d/2) times across trails, so every marker bit produces up to
/// ceil(d/2)-1 stray occurrences on other trails. Spreading markers
/// proportionally keeps the expected strays-per-marker-span below the
/// re-sampling threshold — the concrete form of the paper's Δ^O(α) round
/// bound. Both encoder and decoder derive the spacing from here.
int degree_scaled_spacing(int base_spacing, int max_degree);

/// Payload for the segment of trail `t` starting at position `start`
/// (re-evaluated whenever re-sampling moves the segment).
using SegmentPayloadFn = std::function<BitString(int t, int start)>;

/// Writes markers on every trail with needs_marks[t] != 0. All markers are
/// written in the trail's as-given direction. Payloads must have at most
/// max_payload_bits bits. Throws if the re-sampling budget is exhausted.
/// Keeps no state between calls; its working arrays, a few bytes per node
/// and per marked-trail position, are freed when it returns.
TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                             const std::vector<char>& needs_marks,
                             const SegmentPayloadFn& payload_fn, int max_payload_bits,
                             const TrailCodeParams& params = {});

/// Convenience overload: one constant payload per trail.
TrailCode encode_trail_marks(const Graph& g, const std::vector<Trail>& trails,
                             const std::vector<char>& needs_marks,
                             const std::vector<BitString>& payloads,
                             const TrailCodeParams& params = {});

/// LOCAL decode: starting from trail position `pos` of trail t, walk at most
/// walk_limit steps in both directions reading node bits and parse the
/// nearest marker. All markers in range must agree on the direction (the
/// encoder guarantees they do). Returns nullopt when no marker is in range.
/// Costs 2·(2·walk_limit + 1) parse attempts: use it where a decoder reads
/// one position of a trail, and decode_trail_marks where it reads them all.
std::optional<TrailDecode> decode_trail_mark(const Trail& t, int pos,
                                             const std::vector<char>& bits, int walk_limit);

/// One marker that parses on a trail.
struct TrailMarker {
  /// +1: read in the trail's as-given direction; -1: reversed.
  int direction = 0;
  /// Trail position of the marker's first bit, in [0, positions).
  int start = 0;
  /// Trail positions the marker spans.
  int length = 0;
  BitString payload;
};

/// decode_trail_mark's answer at every position of one trail.
struct TrailMarkTable {
  /// Every (start, direction) that parses, start ascending, +1 before -1.
  std::vector<TrailMarker> markers;
  /// Per trail position: the index into `markers` of the marker
  /// decode_trail_mark picks there, or -1 where it returns nullopt.
  std::vector<int> chosen;
};

/// Whole-trail decode: parses every (start, direction) of t once, then slides
/// the ±walk_limit window along the trail and applies decode_trail_mark's
/// selection rule at each position. O(positions) parse attempts plus the
/// markers each window holds, where decode_trail_mark at every position would
/// cost 2·(2·walk_limit + 1) attempts per position. Each position's answer
/// still depends only on the bits within walk_limit of it, so this is the
/// same LOCAL decoder run at every node at once.
TrailMarkTable decode_trail_marks(const Trail& t, const std::vector<char>& bits, int walk_limit);

}  // namespace lad
