#include "core/orientation.hpp"

#include <algorithm>

namespace lad {

OrientationEncoding encode_orientation_advice(const Graph& g, const OrientationParams& params) {
  const auto trails = euler_partition(g);
  std::vector<char> needs(trails.size(), 0);
  std::vector<BitString> payloads(trails.size());  // empty payloads
  int marked = 0;
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (trails[t].length() > params.short_trail_threshold) {
      needs[t] = 1;
      ++marked;
    }
  }
  const int marker_len = trail_marker_length(BitString{});
  LAD_CHECK_MSG(params.short_trail_threshold >= marker_len + 4 + params.marker_jitter,
                "short_trail_threshold too small for the marker code");

  TrailCodeParams tp;
  tp.spacing = degree_scaled_spacing(params.marker_spacing, g.max_degree());
  tp.jitter = params.marker_jitter;
  tp.max_resample_rounds = params.max_resample_rounds;
  tp.seed = params.seed;
  auto code = encode_trail_marks(g, trails, needs, payloads, tp);

  OrientationEncoding enc;
  enc.resample_rounds = code.resample_rounds;
  enc.bits = std::move(code.bits);
  enc.walk_limit = trail_walk_limit(tp, marker_len);
  enc.num_marked_trails = marked;
  enc.params = params;
  return enc;
}

OrientationDecodeResult decode_orientation(const Graph& g, const std::vector<char>& bits,
                                           const OrientationParams& params) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "orientation advice has " << bits.size() << " bits for n = " << g.n());
  TrailCodeParams tp;
  tp.spacing = degree_scaled_spacing(params.marker_spacing, g.max_degree());
  tp.jitter = params.marker_jitter;
  const int walk_limit = trail_walk_limit(tp, trail_marker_length(BitString{}));

  const auto trails = euler_partition(g);
  OrientationDecodeResult res;
  res.orientation.assign(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  int rounds = 0;
  for (const auto& t : trails) {
    if (t.length() <= params.short_trail_threshold) {
      const int dir = canonical_trail_direction(g, t) ? +1 : -1;
      orient_trail(g, t, dir, res.orientation);
      rounds = std::max(rounds, t.length());
    } else {
      // Every node on the trail decodes the nearest marker; all agree. The
      // simulation decodes once per trail and charges the walk radius.
      const auto d = decode_trail_mark(g, t, 0, bits, walk_limit);
      LAD_CHECK_MSG(d.has_value(), "no marker decodable on a long trail");
      orient_trail(g, t, d->direction, res.orientation);
      rounds = std::max(rounds, walk_limit);
    }
  }
  res.rounds = rounds;
  return res;
}

}  // namespace lad
