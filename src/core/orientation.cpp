#include "core/orientation.hpp"

#include <algorithm>

namespace lad {
namespace {

// The fixed parts of the §5 marker code.
constexpr int kMarkerJitter = 10;
constexpr int kResampleBudget = 50'000;
constexpr std::uint64_t kTrailSeed = 12345;

}  // namespace

TrailSchema trail_schema(const Graph& g, const OrientationParams& params, int payload_bits) {
  BitString longest;  // all-ones payloads expand to the longest markers
  for (int i = 0; i < payload_bits; ++i) longest.append(true);
  const int marker_len = trail_marker_length(longest);
  LAD_CHECK_MSG(params.short_trail_threshold >= marker_len + 4 + kMarkerJitter,
                "short_trail_threshold too small for the marker code");

  TrailSchema s;
  s.trails = euler_partition(g);
  s.marked.assign(s.trails.size(), 0);
  for (std::size_t t = 0; t < s.trails.size(); ++t) {
    if (s.trails[t].length() > params.short_trail_threshold) {
      s.marked[t] = 1;
      ++s.num_marked;
    }
  }
  s.code.spacing = degree_scaled_spacing(params.marker_spacing, g.max_degree());
  s.code.jitter = kMarkerJitter;
  s.code.max_resample_rounds = kResampleBudget;
  s.code.seed = kTrailSeed;
  s.walk_limit = trail_walk_limit(s.code, marker_len);
  return s;
}

OrientationEncoding encode_orientation_advice(const Graph& g, const OrientationParams& params) {
  const TrailSchema s = trail_schema(g, params, 0);
  const std::vector<BitString> payloads(s.trails.size());  // empty payloads
  auto code = encode_trail_marks(g, s.trails, s.marked, payloads, s.code);

  OrientationEncoding enc;
  enc.bits = std::move(code.bits);
  enc.resample_rounds = code.resample_rounds;
  enc.num_marked_trails = s.num_marked;
  // Markers are written in the trail's as-given direction.
  enc.orientation.assign(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  for (std::size_t t = 0; t < s.trails.size(); ++t) {
    const Trail& trail = s.trails[t];
    const bool forward = s.marked[t] != 0 || canonical_trail_direction(g, trail);
    orient_trail(g, trail, forward ? +1 : -1, enc.orientation);
  }
  return enc;
}

OrientationDecodeResult decode_orientation(const Graph& g, const std::vector<char>& bits,
                                           const OrientationParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "orientation advice has " << bits.size() << " bits for n = " << g.n());
  const TrailSchema s = trail_schema(g, params, 0);
  OrientationDecodeResult res;
  res.orientation.assign(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  int rounds = 0;
  for (std::size_t i = 0; i < s.trails.size(); ++i) {
    const Trail& t = s.trails[i];
    if (!s.marked[i]) {
      const int dir = canonical_trail_direction(g, t) ? +1 : -1;
      orient_trail(g, t, dir, res.orientation);
      rounds = std::max(rounds, t.length());
    } else {
      // Every node on the trail decodes the nearest marker; all agree. The
      // simulation decodes once per trail and charges the walk radius.
      const auto d = decode_trail_mark(t, 0, bits, s.walk_limit);
      LAD_CHECK_MSG(d.has_value(), "no marker decodable on a long trail");
      orient_trail(g, t, d->direction, res.orientation);
      rounds = std::max(rounds, s.walk_limit);
    }
  }
  res.rounds = rounds;
  return res;
}

}  // namespace lad
