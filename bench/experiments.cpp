// The EXPERIMENTS.md suites as `lad bench` cases: one case per experiment
// row. Each case builds its row's instance (generator, size, seed, ID mode)
// and calls the library with the row's parameters. The paper's quantities
// land in the row fields (n, m, rounds, bits_per_node, total_bits) and in
// the case's counters; the correctness property a row stands on (proper
// coloring, balanced orientation, exact recovery, ...) is a LAD_CHECK, so a
// case that breaks it becomes an error row instead of a number.
//
// Only the r1 fault campaigns use the pool (their trials fan out); every
// other case runs serially at any thread count, so its multi-thread rows
// re-check run-to-run determinism rather than measure a speedup.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advice/advice.hpp"
#include "advice/schema.hpp"
#include "baselines/cole_vishkin.hpp"
#include "baselines/global_orientation.hpp"
#include "baselines/linial.hpp"
#include "bench/bench_runner.hpp"
#include "core/decompress.hpp"
#include "core/delta_coloring.hpp"
#include "core/eth.hpp"
#include "core/orientation.hpp"
#include "core/proofs.hpp"
#include "core/running_example.hpp"
#include "core/splitting.hpp"
#include "core/subexp_lcl.hpp"
#include "core/three_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "lcl/problems.hpp"
#include "obs/stopwatch.hpp"
#include "util/contracts.hpp"

namespace lad::bench {
namespace {

std::string str(int v) { return std::to_string(v); }

/// Appends a serial case: it runs the same way at any thread count.
void add(std::vector<Case>& cases, std::string name, std::function<CaseRun()> run) {
  cases.push_back({std::move(name), [run = std::move(run)](int) { return run(); }});
}

// Byte-exact renderings of a case's outputs, appended to its digest.
void put(std::string& d, const std::vector<char>& bits) {
  for (const char b : bits) d += b != 0 ? '1' : '0';
  d += '|';
}

template <class T>
void put(std::string& d, const std::vector<T>& values) {
  for (const T& v : values) d += std::to_string(static_cast<long long>(v)) + ',';
  d += '|';
}

CaseRun on(const Graph& g, int rounds = 0) {
  CaseRun r;
  r.n = g.n();
  r.m = g.m();
  r.rounds = rounds;
  return r;
}

/// A row decoded from uniform 1-bit advice: the advice's measured bits per
/// node and total in the row fields, its Definition 3 ones ratio as a
/// counter.
CaseRun one_bit_row(const Graph& g, const std::vector<char>& bits, int rounds) {
  const auto stats = advice_stats(advice_from_bits(bits));
  CaseRun r = on(g, rounds);
  r.bits_per_node = obs::per_node(stats.total_bits, stats.n);
  r.total_bits = stats.total_bits;
  r.counters.emplace_back("ones_ratio", stats.ones_ratio);
  put(r.digest, bits);
  return r;
}

/// A row decoded from a variable-length schema: its packed size in the row
/// fields.
CaseRun schema_row(const Graph& g, const VarAdvice& advice, int rounds) {
  CaseRun r = on(g, rounds);
  for (const auto& [node, packed] : pack_var_advice(advice)) {
    r.digest += std::to_string(node) + ':' + packed.to_string() + ',';
    r.total_bits += packed.size();
  }
  r.bits_per_node = obs::per_node(r.total_bits, g.n());
  return r;
}

std::unique_ptr<LclProblem> lcl_problem(int which) {
  if (which == 0) return std::make_unique<VertexColoringLcl>(3);
  if (which == 1) return std::make_unique<MisLcl>();
  return std::make_unique<MaximalMatchingLcl>();
}

SubexpLclParams x_params(int x) {
  SubexpLclParams p;
  p.x = x;
  return p;
}

/// The circular ladder's two sides colored 1/2 alternately, crossed: a
/// proper 3-coloring witness with a free color everywhere.
std::vector<int> ladder_witness(int m) {
  std::vector<int> w(static_cast<std::size_t>(2 * m));
  for (int i = 0; i < m; ++i) {
    w[static_cast<std::size_t>(i)] = 1 + i % 2;
    w[static_cast<std::size_t>(m + i)] = 2 - i % 2;
  }
  return w;
}

DeltaColoringParams ladder_params() {
  DeltaColoringParams params;
  params.cluster_spacing = 400;
  params.repair_radius = 3;
  params.max_repair_radius = 8;
  return params;
}

/// The shared body of the §4 LCL rows (E1, E8): encode, decode, validate.
CaseRun subexp_run(const Graph& g, const LclProblem& p, int x) {
  const auto enc = encode_subexp_lcl_advice(g, p, x_params(x));
  const auto dec = decode_subexp_lcl(g, p, enc.bits, x_params(x));
  LAD_CHECK_MSG(is_valid_labeling(g, p, dec.labeling), "decoded " << p.name() << " is invalid");
  CaseRun r = one_bit_row(g, enc.bits, dec.rounds);
  r.counters.emplace_back("clusters", enc.num_clusters);
  put(r.digest, dec.labeling.node_labels);
  put(r.digest, dec.labeling.edge_labels);
  return r;
}

/// The shared body of the §5 orientation rows (E2, E8, A1).
CaseRun orientation_run(const Graph& g, const OrientationParams& params) {
  const auto enc = encode_orientation_advice(g, params);
  const auto dec = decode_orientation(g, enc.bits, params);
  LAD_CHECK_MSG(is_balanced_orientation(g, dec.orientation, 1), "orientation is not balanced");
  CaseRun r = one_bit_row(g, enc.bits, dec.rounds);
  r.counters.emplace_back("marked_trails", enc.num_marked_trails);
  put(r.digest, dec.orientation);
  return r;
}

// E1 — Theorem 4.1: any LCL on paths and cycles with 1 bit per node in
// O(1) rounds; rounds stay flat in n.
std::vector<Case> e1() {
  std::vector<Case> cases;
  for (int which = 0; which < 3; ++which) {
    for (const bool cycle : {false, true}) {
      for (const int n : {2000, 4000, 8000}) {
        const std::string family = cycle ? "/cycle" : "/path";
        add(cases, "subexp_lcl/" + lcl_problem(which)->name() + family + "/n=" + str(n), [=] {
          const Graph g = cycle ? make_cycle(n, IdMode::kRandomDense, 42)
                                : make_path(n, IdMode::kRandomDense, 42);
          return subexp_run(g, *lcl_problem(which), 100);
        });
      }
    }
  }
  return cases;
}

// E2 — §5: balanced orientation with 1 bit per node in T(Δ) rounds, against
// the advice-free baseline's Θ(n) (rounds_baseline).
std::vector<Case> e2() {
  std::vector<Case> cases;
  for (const std::string family : {"cycle", "regular-4", "grid", "tree-4"}) {
    for (const int n : {2000, 8000, 32000}) {
      add(cases, "orientation/" + family + "/n=" + str(n), [=] {
        Graph g;
        if (family == "cycle") {
          g = make_cycle(n, IdMode::kRandomDense, 7);
        } else if (family == "regular-4") {
          g = make_random_regular(n, 4, 7);
        } else if (family == "grid") {
          int side = 1;
          while (side * side < n) ++side;
          g = make_grid(side, side, IdMode::kRandomDense, 7);
        } else {
          g = make_bounded_degree_tree(n, 4, 7);
        }
        CaseRun r = orientation_run(g, {});
        const auto baseline = orient_without_advice(g);
        r.counters.emplace_back("rounds_baseline", baseline.rounds);
        put(r.digest, baseline.orientation);
        return r;
      });
    }
  }
  return cases;
}

// E3 — §1.5: an arbitrary edge set in ⌈d/2⌉+1 bits at a degree-d node,
// against the d/2 lower bound and the trivial d; rounds flat in n.
std::vector<Case> e3() {
  std::vector<Case> cases;
  for (const auto& [d, n] :
       {std::pair{2, 1600}, {4, 1600}, {6, 1600}, {8, 1600}, {4, 400}, {4, 6400}}) {
    add(cases, "decompress/regular/d=" + str(d) + "/n=" + str(n), [d = d, n = n] {
      const Graph g = make_random_regular(n, d, 77 + d);
      Rng rng(99);
      std::vector<char> x(static_cast<std::size_t>(g.m()));
      for (auto& b : x) b = rng.flip(0.5) ? 1 : 0;
      const auto compressed = compress_edge_set(g, x);
      const auto result = decompress_edge_set(g, compressed);
      LAD_CHECK_MSG(result.in_x == x, "decompression did not recover X");
      CaseRun r = on(g, result.rounds);
      int max_bits = 0;
      for (const auto& label : compressed.labels) {
        r.total_bits += label.size();
        max_bits = std::max(max_bits, label.size());
        r.digest += label.to_string() + ',';
      }
      r.bits_per_node = obs::per_node(r.total_bits, g.n());
      r.counters.emplace_back("bits_per_node_max", max_bits);
      put(r.digest, result.in_x);
      return r;
    });
  }
  return cases;
}

// E4 — Theorem 6.1: Δ-coloring with a sparse variable-length schema in T(Δ)
// rounds, and its uniform 1-bit conversion on the roomy circular ladder.
std::vector<Case> e4() {
  std::vector<Case> cases;
  for (const int n : {500, 1000, 2000}) {
    for (const int delta : {4, 6, 8}) {
      add(cases, "delta_coloring/planted/delta=" + str(delta) + "/n=" + str(n), [=] {
        const auto pc = make_planted_colorable(n, delta, delta * 0.7, delta, 1234 + delta);
        const auto enc = encode_delta_coloring_advice(pc.graph, pc.coloring);
        const auto dec = decode_delta_coloring(pc.graph, enc.advice);
        LAD_CHECK_MSG(is_proper_coloring(pc.graph, dec.coloring, delta),
                      "decoded Δ-coloring is not proper");
        CaseRun r = schema_row(pc.graph, enc.advice, dec.rounds);
        r.counters.emplace_back("storage_nodes", static_cast<double>(enc.advice.size()));
        r.counters.emplace_back("clusters", enc.num_clusters);
        r.counters.emplace_back("repairs", enc.num_repairs);
        put(r.digest, dec.coloring);
        return r;
      });
    }
  }
  for (const int m : {4000, 8000}) {
    add(cases, "delta_coloring/ladder-one-bit/m=" + str(m), [=] {
      const Graph g = make_circular_ladder(m, IdMode::kRandomDense, 10);
      DeltaColoringParams params = ladder_params();
      params.uniform_one_bit = true;
      const auto enc = encode_delta_coloring_advice(g, ladder_witness(m), params);
      const auto dec = decode_delta_coloring_one_bit(g, enc.uniform_bits,
                                                     enc.uniform_max_payload_bits, params);
      LAD_CHECK_MSG(is_proper_coloring(g, dec.coloring, 3), "ladder 3-coloring is not proper");
      CaseRun r = one_bit_row(g, enc.uniform_bits, dec.rounds);
      put(r.digest, dec.coloring);
      return r;
    });
  }
  return cases;
}

// E5 — Theorem 7.1: 3-coloring with exactly 1 bit per node (the trivial
// schema needs 2), on planted graphs and on caterpillars whose G_{2,3} is
// one long path.
CaseRun three_coloring_run(const Graph& g, const std::vector<int>& witness) {
  const auto enc = encode_three_coloring_advice(g, witness);
  const auto dec = decode_three_coloring(g, enc.bits);
  LAD_CHECK_MSG(is_proper_coloring(g, dec.coloring, 3), "decoded 3-coloring is not proper");
  CaseRun r = one_bit_row(g, enc.bits, dec.rounds);
  r.counters.emplace_back("parity_groups", enc.num_groups);
  put(r.digest, dec.coloring);
  return r;
}

std::vector<Case> e5() {
  std::vector<Case> cases;
  for (const int max_deg : {4, 6}) {
    for (const int n : {500, 2000, 8000}) {
      add(cases, "three_coloring/planted/max_deg=" + str(max_deg) + "/n=" + str(n), [=] {
        const auto pc = make_planted_colorable(n, 3, max_deg * 0.6, max_deg, 5 + n);
        return three_coloring_run(pc.graph, pc.coloring);
      });
    }
  }
  for (const int spine : {500, 2000, 8000}) {
    add(cases, "three_coloring/caterpillar/spine=" + str(spine), [=] {
      const auto pc = make_planted_caterpillar(spine, 17);
      return three_coloring_run(pc.graph, pc.coloring);
    });
  }
  return cases;
}

// E6 — §8: the advice-enumeration solver. 2-coloring an odd cycle is
// unsolvable, so the scan tries all 2^n assignments while the
// order-invariant lookup table stays constant-size; an even cycle exits
// early.
CaseRun eth_run(int n, std::uint64_t seed, bool count_lookups) {
  const Graph g = make_cycle(n, IdMode::kRandomDense, seed);
  const auto res = enumerate_advice(g, VertexColoringLcl(2), 1, make_verbatim_decoder());
  CaseRun r = on(g);
  r.counters.emplace_back("assignments", static_cast<double>(res.assignments_tried));
  r.counters.emplace_back("table_size", static_cast<double>(res.table_size));
  if (count_lookups) r.counters.emplace_back("lookups", static_cast<double>(res.lookups));
  r.counters.emplace_back("found", res.found ? 1 : 0);
  put(r.digest, res.advice);
  put(r.digest, res.labels);
  r.digest += std::to_string(res.misses);
  return r;
}

std::vector<Case> e6() {
  std::vector<Case> cases;
  for (int n = 7; n <= 19; n += 2) {
    add(cases, "eth/odd-cycle/n=" + str(n), [=] { return eth_run(n, 3, true); });
  }
  for (const int n : {8, 12, 16}) {
    add(cases, "eth/even-cycle/n=" + str(n), [=] { return eth_run(n, 4, false); });
  }
  return cases;
}

// E7 — §5 extensions: degree splitting with 1 bit per node, the §3.5
// running example through the generic composition, and Δ-edge-coloring of
// bipartite Δ-regular graphs by recursive splitting.
std::vector<Case> e7() {
  std::vector<Case> cases;
  for (const int n : {800, 3200, 12800}) {
    for (const bool torus : {true, false}) {
      const std::string family = torus ? "torus" : "bipartite-regular-4";
      add(cases, "splitting/" + family + "/n=" + str(n), [=] {
        Graph g;
        if (torus) {
          int side = 3;
          while (2 * side * side < n) ++side;
          g = make_torus(side, 2 * side, IdMode::kRandomDense, 5);
        } else {
          g = make_bipartite_regular(n / 2, 4, 6);
        }
        const auto enc = encode_splitting_advice(g);
        const auto dec = decode_splitting(g, enc.bits);
        LAD_CHECK_MSG(is_splitting(g, dec.edge_color), "not a splitting");
        CaseRun r = one_bit_row(g, enc.bits, dec.rounds);
        put(r.digest, dec.edge_color);
        put(r.digest, dec.node_color);
        return r;
      });
    }
  }
  for (const int n : {6000, 12000}) {
    add(cases, "running_example/cycle-one-bit/n=" + str(n), [=] {
      const Graph g = make_cycle(n, IdMode::kRandomDense, 11);
      RunningExampleParams params;
      params.uniform_one_bit = true;
      params.color_anchor_spacing = 600;
      params.orientation_anchor_spacing = 600;
      const auto enc = encode_running_example(g, params);
      const auto dec = decode_running_example_one_bit(g, enc.uniform_bits,
                                                      enc.uniform_max_payload_bits, params);
      LAD_CHECK_MSG(is_splitting(g, dec.edge_color), "not a splitting");
      CaseRun r = one_bit_row(g, enc.uniform_bits, dec.rounds);
      put(r.digest, dec.edge_color);
      put(r.digest, dec.node_color);
      return r;
    });
  }
  for (const int d : {2, 4, 8}) {
    add(cases, "edge_coloring/bipartite-regular/delta=" + str(d), [=] {
      const Graph g = make_bipartite_regular(std::max(200, 80 * d), d, 9 + d);
      const auto res = edge_color_bipartite_regular(g);
      LAD_CHECK_MSG(is_proper_edge_coloring(g, res.edge_color, d), "not a Δ-edge-coloring");
      CaseRun r = on(g, res.rounds);
      int max_bits = 0;
      for (const int b : res.bits_per_node) {
        max_bits = std::max(max_bits, b);
        r.total_bits += b;
      }
      r.bits_per_node = obs::per_node(r.total_bits, g.n());
      r.counters.emplace_back("levels", res.levels);
      r.counters.emplace_back("bits_per_node_max", max_bits);
      put(r.digest, res.edge_color);
      put(r.digest, res.bits_per_node);
      return r;
    });
  }
  return cases;
}

// E8 — Definition 3: sparser advice costs more rounds. The orientation
// schema's marker spacing and the §4 schema's scale x are swept; each row
// is an (ε = ones_ratio, T(ε) = rounds) point.
std::vector<Case> e8() {
  std::vector<Case> cases;
  for (const int spacing : {40, 120, 360, 1080, 3240}) {
    add(cases, "orientation/cycle/spacing=" + str(spacing) + "/n=40000", [=] {
      OrientationParams params;
      params.marker_spacing = spacing;
      return orientation_run(make_cycle(40000, IdMode::kRandomDense, 11), params);
    });
  }
  for (const int x : {100, 140, 180}) {
    add(cases, "subexp_lcl/vertex-3-coloring/cycle/x=" + str(x) + "/n=15000", [=] {
      return subexp_run(make_cycle(15000, IdMode::kRandomDense, 12), VertexColoringLcl(3), x);
    });
  }
  return cases;
}

// E9 — §1.2: the §4 advice as a 1-bit locally checkable proof. Honest
// proofs are accepted with verifier rounds flat in n; random proofs of a
// false statement are rejected; corrupted honest proofs are rejected or
// still certify a valid solution (acceptance implies a valid decode).
std::vector<Case> e9() {
  std::vector<Case> cases;
  for (const int n : {2000, 8000}) {
    add(cases, "proofs/vertex-3-coloring/honest/n=" + str(n), [=] {
      const Graph g = make_cycle(n, IdMode::kRandomDense, 21);
      const VertexColoringLcl p(3);
      const auto proof = make_lcl_proof(g, p, x_params(100));
      const auto res = verify_lcl_proof(g, p, proof, x_params(100));
      LAD_CHECK_MSG(res.accepted, "honest proof rejected");
      return one_bit_row(g, proof, res.rounds);
    });
  }
  add(cases, "proofs/vertex-2-coloring/random/trials=20/n=301", [] {
    const Graph g = make_cycle(301, IdMode::kRandomDense, 22);
    const VertexColoringLcl p(2);  // odd cycle: no 2-coloring
    Rng rng(5);
    CaseRun r = on(g);
    int rejected = 0;
    for (int t = 0; t < 20; ++t) {
      std::vector<char> proof(static_cast<std::size_t>(g.n()));
      for (auto& b : proof) b = rng.flip(0.3) ? 1 : 0;
      const bool accepted = verify_lcl_proof(g, p, proof, x_params(100)).accepted;
      if (!accepted) ++rejected;
      r.digest += accepted ? 'A' : 'R';
    }
    r.counters.emplace_back("rejected", rejected);
    return r;
  });
  for (const int flips : {1, 4, 16}) {
    add(cases, "proofs/mis/corrupted/bit_flips=" + str(flips) + "/trials=10/n=3000", [=] {
      const Graph g = make_cycle(3000, IdMode::kRandomDense, 23);
      MisLcl p;
      const auto honest = make_lcl_proof(g, p, x_params(100));
      Rng rng(7);
      CaseRun r = on(g);
      int rejected = 0;
      for (int t = 0; t < 10; ++t) {
        auto proof = honest;
        for (int k = 0; k < flips; ++k) {
          proof[static_cast<std::size_t>(rng.uniform(0, g.n() - 1))] ^= 1;
        }
        const auto res = verify_lcl_proof(g, p, proof, x_params(100));
        if (!res.accepted) ++rejected;
        r.digest += std::to_string(res.rejecting_nodes) + ',';
      }
      r.counters.emplace_back("rejected", rejected);
      r.counters.emplace_back("accepted_still_valid", 10 - rejected);
      return r;
    });
  }
  return cases;
}

// B1 — the advice-free context lines: Cole–Vishkin's Θ(log* n) 3-coloring,
// Linial's O(Δ²) coloring from IDs, and the Θ(n) balanced orientation.
std::vector<Case> b1() {
  std::vector<Case> cases;
  for (const int n : {100, 1000, 10000, 100000}) {
    add(cases, "cole_vishkin/cycle/n=" + str(n), [=] {
      const Graph g = make_cycle(n, IdMode::kRandomSparse, 31);
      const auto res = cole_vishkin_cycle(g, cycle_successors(g));
      LAD_CHECK_MSG(is_proper_coloring(g, res.colors, 3), "Cole-Vishkin coloring is not proper");
      CaseRun r = on(g, res.rounds);
      put(r.digest, res.colors);
      return r;
    });
  }
  for (const int n : {500, 2000, 8000}) {
    add(cases, "linial/regular-4/n=" + str(n), [=] {
      const Graph g = make_random_regular(n, 4, 33);
      const auto res = linial_coloring_from_ids(g);
      CaseRun r = on(g, res.rounds);
      r.counters.emplace_back("colors", res.num_colors);
      put(r.digest, res.colors);
      return r;
    });
  }
  for (const int n : {1000, 4000, 16000}) {
    add(cases, "global_orientation/cycle/n=" + str(n), [=] {
      const Graph g = make_cycle(n, IdMode::kRandomDense, 35);
      const auto res = orient_without_advice(g);
      LAD_CHECK_MSG(is_balanced_orientation(g, res.orientation, 1),
                    "advice-free orientation is not balanced");
      CaseRun r = on(g, res.rounds);
      put(r.digest, res.orientation);
      return r;
    });
  }
  return cases;
}

// A1 — ablations of four design choices: marker spacing against the
// constructive-LLL re-sampling cost, the short-trail threshold of the
// canonical ID rule, the Δ-coloring stage-2.5 local-fix passes against the
// stage-3 repair set, and the §6 cluster spacing against decode rounds.
std::vector<Case> a1() {
  std::vector<Case> cases;
  for (const int spacing : {40, 300, 600, 1200}) {
    add(cases, "orientation/regular-6/spacing=" + str(spacing) + "/n=2400", [=] {
      const Graph g = make_random_regular(2400, 6, 7);
      OrientationParams params;
      params.marker_spacing = spacing;
      const auto enc = encode_orientation_advice(g, params);
      CaseRun r = one_bit_row(g, enc.bits, 0);
      r.counters.emplace_back("effective_spacing", trail_schema(g, params, 0).code.spacing);
      r.counters.emplace_back("resample_rounds", enc.resample_rounds);
      return r;
    });
  }
  for (const int threshold : {40, 100, 400}) {
    add(cases, "orientation/mixed/threshold=" + str(threshold), [=] {
      const Graph g = disjoint_union({make_cycle(2000), make_cycle(60), make_cycle(90),
                                      make_cycle(120), make_grid(30, 30)},
                                     IdMode::kRandomDense, 8);
      OrientationParams params;
      params.short_trail_threshold = threshold;
      return orientation_run(g, params);
    });
  }
  for (const int passes : {0, 2, 4, 6}) {
    add(cases, "delta_coloring/ladder/local_fix_passes=" + str(passes) + "/m=3000", [=] {
      const Graph g = make_circular_ladder(3000, IdMode::kRandomDense, 10);
      DeltaColoringParams params = ladder_params();
      params.local_fix_passes = passes;
      const auto enc = encode_delta_coloring_advice(g, ladder_witness(3000), params);
      CaseRun r = schema_row(g, enc.advice, 0);
      r.counters.emplace_back("stage3_repairs", enc.num_repairs);
      return r;
    });
  }
  for (const int spacing : {6, 12, 24, 48}) {
    add(cases, "delta_coloring/planted/cluster_spacing=" + str(spacing) + "/n=3000", [=] {
      const auto pc = make_planted_colorable(3000, 5, 3.4, 5, 11);
      DeltaColoringParams params;
      params.cluster_spacing = spacing;
      const auto enc = encode_delta_coloring_advice(pc.graph, pc.coloring, params);
      const auto dec = decode_delta_coloring(pc.graph, enc.advice, params);
      LAD_CHECK_MSG(is_proper_coloring(pc.graph, dec.coloring, 5),
                    "decoded Δ-coloring is not proper");
      CaseRun r = schema_row(pc.graph, enc.advice, dec.rounds);
      r.counters.emplace_back("clusters", enc.num_clusters);
      put(r.digest, dec.coloring);
      return r;
    });
  }
  return cases;
}

// R1 — the deterministic fault adversary. Detection: each fault layer
// alone, then mixed, on every pipeline (silent_corruptions must stay 0).
// Blast radius: the farthest repaired or flagged node from a fault site,
// on cycles and grids at two sizes 4x apart. Δ-coloring skips the cycle
// (its 2-coloring parity is global) and subexp_lcl the grid (its clusters
// want cycle-scale x); splitting runs on a torus with a reduced exact-solver
// budget, because its repairs are the expensive case.
faults::CampaignConfig r1_config(PipelineId decoder, faults::GraphFamily family, int n,
                                 int trials) {
  faults::CampaignConfig cc;
  cc.decoder = decoder;
  cc.family = family;
  cc.n = n;
  cc.trials = trials;
  cc.seed = 7;
  return cc;
}

std::vector<Case> r1() {
  std::vector<Case> cases;
  const auto mixed = faults::default_mixed_plan();
  for (const Pipeline* p : pipelines()) {
    const PipelineId id = p->id();
    for (const std::string layer : {"advice", "graph", "engine", "mixed"}) {
      auto cc = r1_config(id, faults::GraphFamily::kCycle,
                          id == PipelineId::kSubexpLcl ? 128 : 200, 20);
      cc.plan = {};
      if (layer == "advice") cc.plan.advice = mixed.advice;
      if (layer == "graph") cc.plan.graph = mixed.graph;
      if (layer == "engine") cc.plan.engine = mixed.engine;
      if (layer == "mixed") cc.plan = mixed;
      cases.push_back(campaign_case(cc, "/faults=" + layer));
    }
  }
  for (const Pipeline* p : pipelines()) {
    const PipelineId id = p->id();
    if (id == PipelineId::kDeltaColoring) continue;
    const int base = id == PipelineId::kSubexpLcl ? 128 : 200;
    for (const int n : {base, 4 * base}) {
      cases.push_back(campaign_case(r1_config(id, faults::GraphFamily::kCycle, n, 10), "/blast"));
    }
  }
  for (const Pipeline* p : pipelines()) {
    const PipelineId id = p->id();
    if (id == PipelineId::kSubexpLcl) continue;
    const int base = id == PipelineId::kSplitting ? 64 : 256;
    for (const int n : {base, 4 * base}) {
      auto cc = r1_config(id, faults::GraphFamily::kGrid, n, 10);
      if (id == PipelineId::kSplitting) {
        cc.trials = 3;
        cc.policy.solver_budget = 100'000;
      }
      cases.push_back(campaign_case(cc, "/blast"));
    }
  }
  return cases;
}

}  // namespace

std::vector<Case> experiment_cases(const std::string& suite) {
  if (suite == "e1") return e1();
  if (suite == "e2") return e2();
  if (suite == "e3") return e3();
  if (suite == "e4") return e4();
  if (suite == "e5") return e5();
  if (suite == "e6") return e6();
  if (suite == "e7") return e7();
  if (suite == "e8") return e8();
  if (suite == "e9") return e9();
  if (suite == "r1") return r1();
  if (suite == "b1") return b1();
  if (suite == "a1") return a1();
  return {};
}

}  // namespace lad::bench
