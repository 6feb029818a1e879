#include "advice/sparsify.hpp"

#include <algorithm>

namespace lad {
namespace {

constexpr int kPreamble[8] = {1, 1, 1, 1, 0, 1, 1, 0};

BitString expand_payload(const BitString& payload) {
  BitString b;
  for (const int bit : kPreamble) b.append(bit != 0);
  for (int i = 0; i < payload.size(); ++i) {
    if (payload.bit(i)) {
      b.append(true);
      b.append(true);
      b.append(true);
      b.append(false);
    } else {
      b.append(true);
      b.append(true);
      b.append(false);
    }
  }
  b.append(false);
  return b;
}

}  // namespace

int encoded_path_length(const BitString& payload) {
  int ones = 0;
  for (int i = 0; i < payload.size(); ++i) ones += payload.bit(i) ? 1 : 0;
  return 8 + 3 * payload.size() + ones + 1;
}

int max_encoded_path_length(int payload_bits) { return 8 + 4 * payload_bits + 1; }

int required_anchor_separation(int payload_bits) {
  return 2 * max_encoded_path_length(payload_bits) + 5;
}

UniformOneBit encode_paths_one_bit(const Graph& g, const std::map<int, BitString>& anchors,
                                   const NodeMask& mask, bool verify) {
  UniformOneBit out;
  out.bits.assign(static_cast<std::size_t>(g.n()), 0);

  int max_payload = 0;
  for (const auto& [a, payload] : anchors) {
    (void)a;
    max_payload = std::max(max_payload, payload.size());
  }
  out.max_path_len = max_encoded_path_length(max_payload);
  const int sep = 2 * out.max_path_len + 4;

  // Separation precondition.
  for (auto it = anchors.begin(); it != anchors.end(); ++it) {
    const LocalBfs near(g, it->first, sep, mask);
    for (auto jt = std::next(it); jt != anchors.end(); ++jt) {
      LAD_CHECK_MSG(!near.reached(jt->first),
                    "anchors " << g.id(it->first) << " and " << g.id(jt->first)
                               << " violate separation " << sep);
    }
  }

  for (const auto& [a, payload] : anchors) {
    LAD_CHECK_MSG(mask.empty() || mask[a], "anchor outside mask");
    const BitString code = expand_payload(payload);
    const int len = code.size();
    const LocalBfs near(g, a, len - 1, mask);
    // Take a shortest path to the lowest-index node at distance len-1.
    int target = -1;
    for (const int u : near.nodes()) {
      if (near.dist(u) == len - 1 && (target < 0 || u < target)) target = u;
    }
    LAD_CHECK_MSG(target >= 0, "anchor " << g.id(a) << " eccentricity < encoded length " << len);
    const auto path = shortest_path(g, a, target, mask);
    LAD_CHECK(static_cast<int>(path.size()) == len);
    for (int j = 0; j < len; ++j) {
      if (code.bit(j)) out.bits[path[static_cast<std::size_t>(j)]] = 1;
    }
  }

  if (verify) {
    for (const auto& [a, payload] : anchors) {
      const auto got = decode_anchor_at(g, a, out.bits, max_payload, mask);
      LAD_CHECK_MSG(got.has_value() && *got == payload,
                    "round-trip failed for anchor " << g.id(a));
    }
  }
  return out;
}

std::optional<BitString> decode_anchor_at(const Graph& g, int v, const std::vector<char>& bits,
                                          int max_payload_bits, const NodeMask& mask) {
  if ((!mask.empty() && !mask[v]) || !bits[v]) return std::nullopt;
  const int lmax = max_encoded_path_length(max_payload_bits);
  const LocalBfs near(g, v, lmax + 2, mask);

  // layer_one[j]: the unique 1-node at distance j, or -1 if none, or -2 if
  // the layer has two or more 1-nodes.
  std::vector<int> layer_one(static_cast<std::size_t>(lmax) + 3, -1);
  for (const int u : near.nodes()) {
    if (!bits[u]) continue;
    auto& slot = layer_one[static_cast<std::size_t>(near.dist(u))];
    slot = (slot == -1) ? u : -2;
  }

  auto layer_bit = [&](int j) -> int {
    if (j > lmax + 2) return 0;
    if (layer_one[static_cast<std::size_t>(j)] == -2) return -1;  // ambiguous
    return layer_one[static_cast<std::size_t>(j)] >= 0 ? 1 : 0;
  };

  // Preamble.
  for (int j = 0; j < 8; ++j) {
    if (layer_bit(j) != kPreamble[j]) return std::nullopt;
  }
  // Adjacency chain inside the preamble run.
  for (int j = 0; j + 1 < 4; ++j) {
    const int a = layer_one[static_cast<std::size_t>(j)];
    const int b = layer_one[static_cast<std::size_t>(j + 1)];
    if (!g.adjacent(a, b)) return std::nullopt;
  }
  if (!g.adjacent(layer_one[5], layer_one[6])) return std::nullopt;

  // Parse (110 | 1110)* terminated by a 0 at a group start.
  BitString payload;
  int j = 8;
  while (true) {
    if (j > lmax) return std::nullopt;
    const int b0 = layer_bit(j);
    if (b0 == -1) return std::nullopt;
    if (b0 == 0) break;  // terminator
    if (layer_bit(j + 1) != 1) return std::nullopt;
    if (!g.adjacent(layer_one[static_cast<std::size_t>(j)],
                    layer_one[static_cast<std::size_t>(j + 1)]))
      return std::nullopt;
    if (layer_bit(j + 2) == 0) {
      payload.append(false);  // 110
      j += 3;
    } else if (layer_bit(j + 2) == 1 && layer_bit(j + 3) == 0) {
      if (!g.adjacent(layer_one[static_cast<std::size_t>(j + 1)],
                      layer_one[static_cast<std::size_t>(j + 2)]))
        return std::nullopt;
      payload.append(true);  // 1110
      j += 4;
    } else {
      return std::nullopt;
    }
  }
  if (payload.size() > max_payload_bits) return std::nullopt;
  return payload;
}

std::map<int, BitString> decode_paths_one_bit(const Graph& g, const std::vector<char>& bits,
                                              int max_payload_bits, const NodeMask& mask) {
  LAD_CHECK_MSG(static_cast<int>(bits.size()) == g.n(),
                "one-bit advice has " << bits.size() << " bits for n = " << g.n());
  std::map<int, BitString> out;
  for (int v = 0; v < g.n(); ++v) {
    if (!mask.empty() && !mask[v]) continue;
    auto payload = decode_anchor_at(g, v, bits, max_payload_bits, mask);
    if (payload) out[v] = std::move(*payload);
  }
  return out;
}

}  // namespace lad
