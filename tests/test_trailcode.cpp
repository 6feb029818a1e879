#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "advice/trailcode.hpp"
#include "core/orientation.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "reference_trailcode.hpp"

namespace lad {
namespace {

std::vector<Trail> trails_of(const Graph& g) { return euler_partition(g); }

std::vector<char> marks_on_long_trails(const std::vector<Trail>& trails, int min_length) {
  std::vector<char> needs(trails.size(), 0);
  for (std::size_t t = 0; t < trails.size(); ++t) needs[t] = trails[t].length() > min_length;
  return needs;
}

Trail reversed(const Trail& t) {
  Trail rev = t;
  std::reverse(rev.nodes.begin(), rev.nodes.end());
  std::reverse(rev.edges.begin(), rev.edges.end());
  if (t.closed) {
    // edges[i] must join nodes[i] and nodes[(i + 1) % L].
    std::rotate(rev.edges.begin(), rev.edges.begin() + 1, rev.edges.end());
  }
  return rev;
}

TEST(TrailCode, MarkerLengths) {
  EXPECT_EQ(trail_marker_length(BitString{}), 9);
  EXPECT_EQ(trail_marker_length(BitString::parse("0")), 12);
  EXPECT_EQ(trail_marker_length(BitString::parse("1")), 13);
}

TEST(TrailCode, DecodeFromEveryPositionOfCycle) {
  const Graph g = make_cycle(300, IdMode::kRandomDense, 3);
  const auto trails = trails_of(g);
  ASSERT_EQ(trails.size(), 1u);
  std::vector<char> needs = {1};
  std::vector<BitString> payloads = {BitString::parse("10")};
  const auto code = encode_trail_marks(g, trails, needs, payloads);
  for (int pos = 0; pos < trails[0].length(); ++pos) {
    const auto d = decode_trail_mark(trails[0], pos, code.bits, code.walk_limit);
    ASSERT_TRUE(d.has_value()) << "pos " << pos;
    EXPECT_EQ(d->direction, +1);
    EXPECT_EQ(d->payload, BitString::parse("10"));
    EXPECT_LE(d->steps, code.walk_limit);
  }
}

TEST(TrailCode, ReversedTrailDecodesReversedDirection) {
  const Graph g = make_cycle(260, IdMode::kRandomDense, 8);
  auto trails = trails_of(g);
  ASSERT_EQ(trails.size(), 1u);
  const auto code = encode_trail_marks(g, trails, {1}, {BitString{}});

  // A decoder that reconstructed the trail in the opposite direction must
  // read the marker as direction -1 (same orientation of the cycle).
  const Trail rev = reversed(trails[0]);
  const auto d = decode_trail_mark(rev, 0, code.bits, code.walk_limit);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->direction, -1);
}

TEST(TrailCode, OpenTrailCovered) {
  const Graph g = make_path(350, IdMode::kRandomDense, 4);
  const auto trails = trails_of(g);
  ASSERT_EQ(trails.size(), 1u);
  const auto code = encode_trail_marks(g, trails, {1}, {BitString::parse("1")});
  const int P = static_cast<int>(trails[0].nodes.size());
  for (int pos = 0; pos < P; pos += 7) {
    const auto d = decode_trail_mark(trails[0], pos, code.bits, code.walk_limit);
    ASSERT_TRUE(d.has_value()) << "pos " << pos;
    EXPECT_EQ(d->direction, +1);
  }
}

TEST(TrailCode, PerSegmentPayloads) {
  const Graph g = make_cycle(500, IdMode::kRandomDense, 6);
  const auto trails = trails_of(g);
  // Payload = parity of the start position's node index.
  auto payload_fn = [&](int t, int start) {
    BitString b;
    const int node = trails[static_cast<std::size_t>(t)]
                         .nodes[static_cast<std::size_t>(start % trails[0].length())];
    b.append(node % 2 == 1);
    return b;
  };
  const auto code =
      encode_trail_marks(g, trails, {1}, payload_fn, 1, TrailCodeParams{});
  for (int pos = 0; pos < trails[0].length(); pos += 11) {
    const auto d = decode_trail_mark(trails[0], pos, code.bits, code.walk_limit);
    ASSERT_TRUE(d.has_value());
    const int node =
        trails[0].nodes[static_cast<std::size_t>(d->marker_start % trails[0].length())];
    EXPECT_EQ(d->payload.bit(0), node % 2 == 1);
  }
}

TEST(TrailCode, MultipleTrailsNoCrosstalk) {
  // Two disjoint cycles share no nodes, but the encoder must still keep the
  // invariants with both marked.
  const Graph g = disjoint_union({make_cycle(150), make_cycle(180)}, IdMode::kRandomDense, 12);
  const auto trails = trails_of(g);
  ASSERT_EQ(trails.size(), 2u);
  std::vector<BitString> payloads = {BitString::parse("0"), BitString::parse("1")};
  const auto code = encode_trail_marks(g, trails, {1, 1}, payloads);
  for (int t = 0; t < 2; ++t) {
    const auto d = decode_trail_mark(trails[static_cast<std::size_t>(t)], 0, code.bits,
                                     code.walk_limit);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->payload, payloads[static_cast<std::size_t>(t)]);
  }
}

TEST(TrailCode, SharedNodesResampled) {
  // A 4-regular random graph: every node appears on two trail positions, so
  // naive placement would pollute other trails; the re-sampling loop must
  // still deliver a clean encoding.
  const Graph g = make_random_regular(400, 4, 2024);
  const auto trails = trails_of(g);
  std::vector<char> needs(trails.size(), 0);
  std::vector<BitString> payloads(trails.size());
  bool any = false;
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (trails[t].length() > 60) {
      needs[t] = 1;
      any = true;
    }
  }
  if (!any) GTEST_SKIP() << "no long trails in this instance";
  const auto code = encode_trail_marks(g, trails, needs, payloads);
  for (std::size_t t = 0; t < trails.size(); ++t) {
    if (!needs[t]) continue;
    for (int pos = 0; pos < trails[t].length(); pos += 13) {
      const auto d = decode_trail_mark(trails[t], pos, code.bits, code.walk_limit);
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->direction, +1);
    }
  }
}

TEST(TrailCode, UnmarkedTrailsUntouched) {
  const Graph g = disjoint_union({make_cycle(150), make_cycle(20)}, IdMode::kSequential, 1);
  const auto trails = trails_of(g);
  ASSERT_EQ(trails.size(), 2u);
  const std::size_t longer = trails[0].length() > trails[1].length() ? 0 : 1;
  std::vector<char> needs(2, 0);
  needs[longer] = 1;
  const auto code = encode_trail_marks(g, trails, needs, std::vector<BitString>(2));
  // The short cycle's nodes carry no bits.
  for (const int v : trails[1 - longer].nodes) EXPECT_EQ(code.bits[v], 0);
}

TEST(TrailCode, TooShortTrailRejected) {
  const Graph g = make_cycle(10);
  const auto trails = trails_of(g);
  EXPECT_THROW(
      encode_trail_marks(g, trails, {1}, {BitString::parse("10101010")}),
      ContractViolation);
}

TEST(TrailCode, WalkLimitFormula) {
  TrailCodeParams p;
  p.spacing = 40;
  p.jitter = 10;
  // Effective spacing = max(40, 2*(len+4+20)); monotone in marker length.
  EXPECT_LT(trail_walk_limit(p, 9), trail_walk_limit(p, 25));
  EXPECT_GE(trail_walk_limit(p, 9), p.spacing);
}

TEST(TrailCode, DegreeScaledSpacing) {
  EXPECT_EQ(degree_scaled_spacing(40, 2), 40);   // one occurrence: no strays
  EXPECT_EQ(degree_scaled_spacing(40, 4), 150);  // two occurrences
  EXPECT_EQ(degree_scaled_spacing(40, 8), 450);  // four occurrences
  EXPECT_EQ(degree_scaled_spacing(999, 4), 999);  // base dominates
}

TEST(TrailCode, EveryPositionDecodesWithPayloads) {
  // Exhaustive per-position check with a non-empty payload.
  const Graph g = make_cycle(400, IdMode::kRandomSparse, 21);
  const auto trails = euler_partition(g);
  const auto code = encode_trail_marks(g, trails, {1}, {BitString::parse("1101")});
  for (int pos = 0; pos < trails[0].length(); ++pos) {
    const auto d = decode_trail_mark(trails[0], pos, code.bits, code.walk_limit);
    ASSERT_TRUE(d.has_value()) << pos;
    EXPECT_EQ(d->direction, +1);
    EXPECT_EQ(d->payload, BitString::parse("1101"));
  }
}

TEST(TrailCode, NoMarkerMeansNoDecode) {
  const Graph g = make_cycle(100);
  const auto trails = euler_partition(g);
  const std::vector<char> zeros(static_cast<std::size_t>(g.n()), 0);
  EXPECT_FALSE(decode_trail_mark(trails[0], 0, zeros, 100).has_value());
}

TEST(TrailCode, ResampleRoundsReported) {
  const Graph g = make_random_regular(800, 4, 31);
  const auto trails = euler_partition(g);
  const auto code = encode_trail_marks(g, trails, marks_on_long_trails(trails, 60),
                                       std::vector<BitString>(trails.size()));
  EXPECT_GE(code.resample_rounds, 0);
  EXPECT_LT(code.resample_rounds, 50000);
}


// --- Differential oracle ------------------------------------------------------
// decode_trail_mark and the whole-trail decode_trail_marks must give the
// frozen per-position decoder's answer (reference_trailcode.hpp) at every
// position of every trail below, under clean, lightly corrupted and random
// bits, at the encoder's walk limit and at windows shorter than a marker.

struct OracleTally {
  long long positions = 0;
  long long decoded = 0;
};

void expect_matches_reference(const Graph& g, const Trail& t, const std::vector<char>& bits,
                              int walk_limit, OracleTally& tally) {
  SCOPED_TRACE("walk_limit " + std::to_string(walk_limit));
  const TrailMarkTable table = decode_trail_marks(t, bits, walk_limit);
  ASSERT_EQ(table.chosen.size(), static_cast<std::size_t>(t.positions()));
  for (std::size_t i = 1; i < table.markers.size(); ++i) {
    const TrailMarker& a = table.markers[i - 1];
    const TrailMarker& b = table.markers[i];
    ASSERT_TRUE(a.start < b.start || (a.start == b.start && a.direction > b.direction))
        << "markers out of scan order at " << i;
  }
  for (int pos = 0; pos < t.positions(); ++pos) {
    const auto want = reference::decode_trail_mark(g, t, pos, bits, walk_limit);
    const auto got = decode_trail_mark(t, pos, bits, walk_limit);
    const int chosen = table.chosen[static_cast<std::size_t>(pos)];
    ++tally.positions;
    ASSERT_EQ(got.has_value(), want.has_value()) << "pos " << pos;
    ASSERT_EQ(chosen >= 0, want.has_value()) << "pos " << pos;
    if (!want) continue;
    ++tally.decoded;
    ASSERT_EQ(got->direction, want->direction) << "pos " << pos;
    ASSERT_EQ(got->payload, want->payload) << "pos " << pos;
    ASSERT_EQ(got->marker_start, want->marker_start) << "pos " << pos;
    ASSERT_EQ(got->steps, want->steps) << "pos " << pos;
    const TrailMarker& m = table.markers[static_cast<std::size_t>(chosen)];
    ASSERT_EQ(m.direction, want->direction) << "pos " << pos;
    ASSERT_EQ(m.payload, want->payload) << "pos " << pos;
    ASSERT_EQ(m.start, want->marker_start) << "pos " << pos;
    ASSERT_EQ(m.length, trail_marker_length(want->payload)) << "pos " << pos;
  }
}

// The encoder's clean bits, the same with 1..5 flipped bits, and uniformly
// random bits at densities 0.05, 0.15, ..., 0.95.
std::vector<std::pair<std::string, std::vector<char>>> bit_variants(
    const std::vector<char>& clean, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::vector<char>>> out;
  out.emplace_back("clean", clean);
  Rng rng(seed);
  const auto n = static_cast<std::int64_t>(clean.size());
  for (int flips = 1; flips <= 5; ++flips) {
    std::vector<char> b = clean;
    for (int i = 0; i < flips; ++i) {
      char& c = b[static_cast<std::size_t>(rng.uniform(0, n - 1))];
      c = c != 0 ? 0 : 1;
    }
    out.emplace_back(std::to_string(flips) + " flipped", std::move(b));
  }
  for (int twentieths = 1; twentieths <= 19; twentieths += 2) {
    std::vector<char> b(clean.size());
    for (char& c : b) c = rng.flip(twentieths / 20.0) ? 1 : 0;
    out.emplace_back("density " + std::to_string(twentieths) + "/20", std::move(b));
  }
  return out;
}

// Every trail of `trails` against the reference, under every bit variant of
// `clean`, at the encoder's walk limit and at windows of 12 and 30 positions
// (shorter than or about one marker, so the far-end test decides).
void expect_trails_match_reference(const Graph& g, const std::vector<Trail>& trails,
                                   const std::vector<char>& clean, int walk_limit,
                                   std::uint64_t seed, OracleTally& tally) {
  for (const auto& [what, bits] : bit_variants(clean, seed)) {
    SCOPED_TRACE(what);
    for (std::size_t t = 0; t < trails.size(); ++t) {
      SCOPED_TRACE("trail " + std::to_string(t));
      for (const int w : {walk_limit, 12, 30}) {
        expect_matches_reference(g, trails[t], bits, w, tally);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Writes the marker for `payload` ('0'/'1' characters) onto t from `start`,
// read in direction d. Returns its length.
int write_marker(const Trail& t, std::vector<char>& bits, int start, int d,
                 const std::string& payload) {
  std::string code = "11110110";
  for (const char c : payload) code += c == '1' ? "1110" : "110";
  code += '0';
  for (std::size_t k = 0; k < code.size(); ++k) {
    const int node = t.node_at(start + d * static_cast<int>(k));
    bits[static_cast<std::size_t>(node)] = code[k] == '1' ? 1 : 0;
  }
  return static_cast<int>(code.size());
}

TEST(TrailCodeOracle, ClosedTrailsLongerThanTheWindow) {
  OracleTally tally;
  const Graph cycle = make_cycle(400, IdMode::kRandomDense, 41);
  const auto trails = euler_partition(cycle);
  ASSERT_EQ(trails.size(), 1u);
  for (const char* payload : {"", "0", "1"}) {
    SCOPED_TRACE(std::string("payload '") + payload + "'");
    const auto code = encode_trail_marks(cycle, trails, {1}, {BitString::parse(payload)});
    ASSERT_LT(2 * code.walk_limit + 1, trails[0].positions());
    expect_trails_match_reference(cycle, trails, code.bits, code.walk_limit, 7, tally);
    if (HasFatalFailure()) return;
  }
  // Per-segment payloads, as splitting writes them.
  const auto parity = [&](int t, int start) {
    BitString b;
    b.append(trails[static_cast<std::size_t>(t)].node_at(start) % 2 == 1);
    return b;
  };
  const auto split = encode_trail_marks(cycle, trails, {1}, parity, 1);
  expect_trails_match_reference(cycle, trails, split.bits, split.walk_limit, 8, tally);
  if (HasFatalFailure()) return;

  // Nodes on two trails each: stray 1s from the other trail's markers.
  const Graph regular = make_random_regular(300, 4, 5);
  const auto rtrails = euler_partition(regular);
  const auto code = encode_trail_marks(regular, rtrails, marks_on_long_trails(rtrails, 60),
                                       std::vector<BitString>(rtrails.size()));
  expect_trails_match_reference(regular, rtrails, code.bits, code.walk_limit, 9, tally);
  EXPECT_GT(tally.decoded, tally.positions / 8);
}

TEST(TrailCodeOracle, ClosedTrailsShorterThanTheWindow) {
  // A window longer than the trail sees each marker at several offsets.
  OracleTally tally;
  const Graph cycle = make_cycle(60, IdMode::kRandomDense, 42);
  const auto trails = euler_partition(cycle);
  for (const char* payload : {"", "1"}) {
    SCOPED_TRACE(std::string("payload '") + payload + "'");
    const auto code = encode_trail_marks(cycle, trails, {1}, {BitString::parse(payload)});
    ASSERT_GT(2 * code.walk_limit + 1, 4 * trails[0].positions());
    expect_trails_match_reference(cycle, trails, code.bits, code.walk_limit, 10, tally);
    if (HasFatalFailure()) return;
  }
  // The 12x12 torus of the decompress golden: the degree-scaled walk limit
  // (256) exceeds every trail, so every window wraps.
  const Graph torus = make_torus(12, 12, IdMode::kRandomDense, 7);
  const auto ttrails = euler_partition(torus);
  TrailCodeParams tp;
  tp.spacing = degree_scaled_spacing(tp.spacing, torus.max_degree());
  for (const char* payload : {"", "0"}) {
    SCOPED_TRACE(std::string("torus payload '") + payload + "'");
    const auto code =
        encode_trail_marks(torus, ttrails, marks_on_long_trails(ttrails, 40),
                           std::vector<BitString>(ttrails.size(), BitString::parse(payload)), tp);
    for (const auto& t : ttrails) ASSERT_LT(t.positions(), 2 * code.walk_limit + 1);
    expect_trails_match_reference(torus, ttrails, code.bits, code.walk_limit, 11, tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.decoded, tally.positions / 8);
}

TEST(TrailCodeOracle, OpenTrailsWithMarkersAtTheEnds) {
  OracleTally tally;
  const Graph path = make_path(350, IdMode::kRandomDense, 43);
  const auto trails = euler_partition(path);
  ASSERT_EQ(trails.size(), 1u);
  for (const char* payload : {"", "1"}) {
    SCOPED_TRACE(std::string("payload '") + payload + "'");
    const auto code = encode_trail_marks(path, trails, {1}, {BitString::parse(payload)});
    expect_trails_match_reference(path, trails, code.bits, code.walk_limit, 12, tally);
    if (HasFatalFailure()) return;
  }

  // Hand-placed markers on a 48-node path: one read forward that ends on the
  // last position, one read backward that ends on position 0, and one cut
  // off by the trail's end, which must not parse.
  const Graph shortp = make_path(48, IdMode::kRandomDense, 44);
  const auto strails = euler_partition(shortp);
  const Trail& t = strails[0];
  const int P = t.positions();
  std::vector<char> bits(static_cast<std::size_t>(shortp.n()), 0);
  const int fwd = write_marker(t, bits, P - 13, +1, "1");
  ASSERT_EQ(fwd, 13);
  write_marker(t, bits, 11, -1, "0");
  // Within 25 steps each end sees only its own marker; a 130-step window
  // sees both, which disagree on the direction.
  ASSERT_TRUE(reference::decode_trail_mark(shortp, t, P - 1, bits, 25).has_value());
  ASSERT_TRUE(reference::decode_trail_mark(shortp, t, 0, bits, 25).has_value());
  ASSERT_FALSE(reference::decode_trail_mark(shortp, t, 0, bits, 130).has_value());
  expect_trails_match_reference(shortp, strails, bits, 25, 13, tally);
  ASSERT_FALSE(HasFatalFailure());
  expect_trails_match_reference(shortp, strails, bits, 130, 13, tally);
  ASSERT_FALSE(HasFatalFailure());

  std::vector<char> cut(static_cast<std::size_t>(shortp.n()), 0);
  write_marker(t, cut, 0, +1, "");
  const std::string truncated = "1111011011";
  for (std::size_t k = 0; k < truncated.size(); ++k) {
    const int pos = P - static_cast<int>(truncated.size()) + static_cast<int>(k);
    cut[static_cast<std::size_t>(t.node_at(pos))] = truncated[k] == '1' ? 1 : 0;
  }
  ASSERT_EQ(decode_trail_marks(t, cut, 130).markers.size(), 1u);
  for (const int w : {130, 20}) expect_matches_reference(shortp, t, cut, w, tally);

  // Two markers from one start, read in both directions: a window that
  // holds both far ends sees them disagree.
  std::vector<char> twin(static_cast<std::size_t>(shortp.n()), 0);
  write_marker(t, twin, 20, +1, "");
  write_marker(t, twin, 20, -1, "");
  ASSERT_EQ(decode_trail_marks(t, twin, 12).markers.size(), 2u);
  for (const int w : {130, 12}) expect_matches_reference(shortp, t, twin, w, tally);
  EXPECT_GT(tally.decoded, tally.positions / 8);
}

TEST(TrailCodeOracle, ReversedTrails) {
  OracleTally tally;
  const Graph cycle = make_cycle(260, IdMode::kRandomDense, 8);
  const auto trails = euler_partition(cycle);
  const auto code = encode_trail_marks(cycle, trails, {1}, {BitString::parse("1")});
  const std::vector<Trail> rev = {reversed(trails[0])};
  ASSERT_TRUE(is_valid_euler_partition(cycle, rev));
  expect_trails_match_reference(cycle, rev, code.bits, code.walk_limit, 14, tally);
  ASSERT_FALSE(HasFatalFailure());
  const auto table = decode_trail_marks(rev[0], code.bits, code.walk_limit);
  ASSERT_FALSE(table.markers.empty());
  for (const auto& m : table.markers) EXPECT_EQ(m.direction, -1);

  const Graph path = make_path(200, IdMode::kRandomDense, 9);
  const auto ptrails = euler_partition(path);
  const auto pcode = encode_trail_marks(path, ptrails, {1}, {BitString{}});
  const std::vector<Trail> prev = {reversed(ptrails[0])};
  ASSERT_TRUE(is_valid_euler_partition(path, prev));
  expect_trails_match_reference(path, prev, pcode.bits, pcode.walk_limit, 15, tally);
  EXPECT_GT(tally.decoded, tally.positions / 8);
}

// --- Frozen-encoder oracle -------------------------------------------------
// encode_trail_marks keeps its offender set up to date as segments move; the
// frozen encoder (reference_trailcode.hpp) rewrites every bit and re-parses
// every marked trail each round. Both must name the same offenders in every
// round, so both draw the same random moves and end with the same bits and
// round count, or throw the same budget error.

struct EncodeOutcome {
  std::optional<TrailCode> code;
  std::string error;  // the thrown message after its "— ", if it threw
};

template <typename Encode>
EncodeOutcome run_encoder(Encode encode) {
  EncodeOutcome o;
  try {
    o.code = encode();
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    const std::string dash = "— ";
    const auto at = what.find(dash);
    o.error = at == std::string::npos ? what : what.substr(at + dash.size());
  }
  return o;
}

struct EncoderTally {
  int throws = 0;
  long long rounds = 0;
  reference::ReferencePhases phases;
};

void expect_encoder_matches_reference(const Graph& g, const std::vector<Trail>& trails,
                                      const std::vector<char>& marks,
                                      const SegmentPayloadFn& payload_fn, int max_payload_bits,
                                      const TrailCodeParams& params, EncoderTally& tally) {
  const EncodeOutcome want = run_encoder([&] {
    return reference::encode_trail_marks(g, trails, marks, payload_fn, max_payload_bits, params,
                                         &tally.phases);
  });
  const EncodeOutcome got = run_encoder(
      [&] { return encode_trail_marks(g, trails, marks, payload_fn, max_payload_bits, params); });
  ASSERT_EQ(got.code.has_value(), want.code.has_value()) << got.error << " / " << want.error;
  if (!want.code) {
    ++tally.throws;
    EXPECT_EQ(got.error, want.error);
    return;
  }
  tally.rounds += want.code->resample_rounds;
  EXPECT_EQ(got.code->resample_rounds, want.code->resample_rounds);
  EXPECT_EQ(got.code->walk_limit, want.code->walk_limit);
  EXPECT_TRUE(got.code->bits == want.code->bits) << "advice bits differ";
}

// Every encode that succeeds here ends within a few hundred rounds; the
// budget is cut so that the ones that exhaust it throw in test time.
constexpr int kOracleBudget = 3000;

// The §5 schema's trails, marks and parameters (trail_schema) with one
// constant payload per trail.
void expect_schema_matches_reference(const Graph& g, const char* payload, EncoderTally& tally) {
  const BitString bits = BitString::parse(payload);
  TrailSchema s = trail_schema(g, {}, bits.size());
  s.code.max_resample_rounds = kOracleBudget;
  const SegmentPayloadFn fn = [&bits](int, int) { return bits; };
  expect_encoder_matches_reference(g, s.trails, s.marked, fn, bits.size(), s.code, tally);
}

// Splitting's payload: the 2-color of each segment's start node, so a move
// can change the marker's length.
SegmentPayloadFn start_color_payload(const Graph& g, const std::vector<Trail>& trails,
                                     std::vector<int>& color) {
  color.assign(static_cast<std::size_t>(g.n()), -1);
  for (int root = 0; root < g.n(); ++root) {
    if (color[static_cast<std::size_t>(root)] >= 0) continue;
    color[static_cast<std::size_t>(root)] = 0;
    std::deque<int> queue = {root};
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop_front();
      for (const int w : g.neighbors(v)) {
        int& c = color[static_cast<std::size_t>(w)];
        if (c >= 0) continue;
        c = 1 - color[static_cast<std::size_t>(v)];
        queue.push_back(w);
      }
    }
  }
  return [&trails, &color](int t, int start) {
    const int node = trails[static_cast<std::size_t>(t)].node_at(start);
    BitString b;
    b.append(color[static_cast<std::size_t>(node)] == 1);
    return b;
  };
}

TEST(TrailCodeOracle, EncoderMatchesFrozenEncoder) {
  EncoderTally tally;
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // One closed trail; a torus's closed trails, each node on two; a grid's
    // open trails between its odd-degree border nodes.
    for (const char* payload : {"", "1", "01"}) {
      SCOPED_TRACE(std::string("payload '") + payload + "'");
      expect_schema_matches_reference(make_cycle(3000, IdMode::kRandomDense, seed), payload, tally);
      expect_schema_matches_reference(make_torus(48, 48, IdMode::kRandomDense, seed), payload,
                                      tally);
      expect_schema_matches_reference(make_grid(48, 48, IdMode::kRandomDense, seed), payload,
                                      tally);
      if (HasFatalFailure()) return;
    }
    for (int delta = 3; delta <= 8; ++delta) {
      SCOPED_TRACE("random regular, delta " + std::to_string(delta));
      expect_schema_matches_reference(make_random_regular(2000, delta, seed), "", tally);
      if (HasFatalFailure()) return;
    }
    // Splitting's start-dependent payload.
    const Graph split = make_bipartite_regular(640, 4, seed);
    TrailSchema s = trail_schema(split, {}, 1);
    s.code.max_resample_rounds = kOracleBudget;
    std::vector<int> color;
    expect_encoder_matches_reference(split, s.trails, s.marked,
                                     start_color_payload(split, s.trails, color), 1, s.code,
                                     tally);
    if (HasFatalFailure()) return;
  }
  // Stray-rich placements: on a torus with sequential IDs the trails are
  // staircases that cross at every node, and at a spacing below the
  // Δ-scaled one the stray 1s keep forming new spurious markers after the
  // shared nodes are gone, so most rounds re-parse only around moved
  // segments.
  for (const int side : {48, 56, 64, 80}) {
    SCOPED_TRACE("sequential torus, side " + std::to_string(side));
    const Graph torus = make_torus(side, side, IdMode::kSequential);
    for (const char* payload : {"0", "1", "11"}) {
      SCOPED_TRACE(std::string("payload '") + payload + "'");
      const BitString bits = BitString::parse(payload);
      TrailSchema s = trail_schema(torus, {}, bits.size());
      s.code.spacing = 40;
      s.code.max_resample_rounds = kOracleBudget;
      expect_encoder_matches_reference(torus, s.trails, s.marked,
                                       [&bits](int, int) { return bits; }, bits.size(), s.code,
                                       tally);
      if (HasFatalFailure()) return;
    }
  }
  // e7's failing Δ = 8 instance: a segment that repeats a node inside its
  // own marker on a short closed trail keeps the search from ever ending.
  const Graph e7 = make_bipartite_regular(640, 8, 17);
  TrailSchema s = trail_schema(e7, {}, 1);
  s.code.max_resample_rounds = kOracleBudget;
  std::vector<int> color;
  const int throws = tally.throws;
  expect_encoder_matches_reference(e7, s.trails, s.marked, start_color_payload(e7, s.trails, color),
                                   1, s.code, tally);
  EXPECT_EQ(tally.throws, throws + 1);

  // Both branches of the offender rule fired; the one that blames a planted
  // marker which no longer parses cannot (see advice/trailcode.cpp).
  EXPECT_GT(tally.phases.shared_node_rounds, 0);
  EXPECT_GT(tally.phases.spurious_marker_rounds, 0);
  EXPECT_EQ(tally.phases.lost_marker_rounds, 0);
  EXPECT_GT(tally.rounds, 0);
}

}  // namespace
}  // namespace lad
