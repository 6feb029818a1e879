// §4 — Any LCL on graphs of subexponential growth is solvable with 1 bit of
// advice per node in O(1) rounds (Theorem 4.1).
//
// Construction (the paper's; x is the one tunable constant):
//   * distance-(sep_mult·x) coloring of the nodes; colors are processed in
//     ascending phases;
//   * in phase i every still-unassigned node v of color i with
//     |N_=2x(v)| > 0 in the residual graph G_i becomes a cluster center;
//     the Lemma 4.3 radius α_v ∈ [x, 2x] bounds the border against the
//     interior, and the cluster is N_<=α_v+r(v) in G_i (r = 2);
//   * the center's phase color i is written in 1-bits along a BFS path of
//     length y = x/2 inside the cluster, as
//       B'' = 11110110 · map(0 -> 110, 1 -> 1110 over bits(i)) · 0;
//   * a fixed global solution ℓ of the LCL is pinned on the ring
//     S_v = { u in cluster : dist_G(u, outside) <= r̄ } (r̄ = checkability
//     radius), encoded on an independent set of interior zero-nodes (these
//     1-bits are isolated, the path 1-bits never are — that is how the
//     decoder tells them apart, exactly as in the paper);
//   * nodes never assigned to a cluster see their whole residual component
//     within 2x and complete by brute force; cluster interiors complete by
//     brute force respecting the pinned rings (each solve within 50M steps).
//
// The advice can be made arbitrarily sparse by growing x (E8 measures the
// ones-ratio as a function of x).
//
// The constants are the knob the theory hides in "large enough r": on
// linear-growth families (paths, cycles) x ≈ 60-120 suffices; on
// quadratic-growth families (grids) the same construction needs x in the
// hundreds and million-node instances — see EXPERIMENTS.md.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "lcl/lcl.hpp"

namespace lad {

struct SubexpLclParams {
  int x = 0;  // base scale (paper's x); 0 = derived from n
  /// The distance coloring uses distance sep_mult · x; the decoder's phase
  /// bound is 4 · sep_mult · x + 4 colors.
  static constexpr int sep_mult = 5;
};

/// `params` as encoder and decoder run them: x = 0 becomes a function of n,
/// which every node knows — 60 below n = 512, then 150, because the
/// distance-(5x) coloring uses more colors as n grows and their phase codes
/// outgrow the y = x/2 path budget of x = 60.
SubexpLclParams subexp_at_scale(SubexpLclParams params, int n);

struct SubexpLclEncoding {
  std::vector<char> bits;  // uniform 1-bit advice
  int num_clusters = 0;
  int num_phase_colors = 0;  // colors actually used by the distance coloring
};

/// Centralized prover: solves the LCL globally (or uses `witness` if given)
/// and produces the 1-bit-per-node advice.
SubexpLclEncoding encode_subexp_lcl_advice(const Graph& g, const LclProblem& p,
                                           const SubexpLclParams& params = {},
                                           const Labeling* witness = nullptr);

struct SubexpLclDecodeResult {
  Labeling labeling;
  int rounds = 0;  // O(1): a function of the parameters and Δ only
};

/// LOCAL decoder: recovers clustering and pinned rings from the bits, then
/// completes each cluster / residual component by brute force. Throws
/// ContractViolation on advice that is locally detectably inconsistent.
SubexpLclDecodeResult decode_subexp_lcl(const Graph& g, const LclProblem& p,
                                        const std::vector<char>& bits,
                                        const SubexpLclParams& params = {});

/// Fault-tolerant decoder: a cluster whose ring pin or interior completion
/// fails — or an infeasible residual region — is contained instead of
/// aborting the run. Affected nodes stay unlabeled (-1) and are marked in
/// `failed` (resized to n) for a later repair pass; a wrong-sized bit
/// vector still throws, as no per-node containment exists.
SubexpLclDecodeResult decode_subexp_lcl_tolerant(const Graph& g, const LclProblem& p,
                                                 const std::vector<char>& bits,
                                                 std::vector<char>& failed,
                                                 const SubexpLclParams& params = {});

}  // namespace lad
