#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "lcl/problems.hpp"
#include "lcl/solver.hpp"
#include "obs/telemetry.hpp"
#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

// Instance-generation constants shared with the campaign layer: the
// membership tag keeps §1.5 instances a pure function of (seed, edge IDs).
constexpr std::uint64_t kTagMembership = 0xed6e;
constexpr std::uint64_t kWitnessSolverBudget = 50'000'000;

// The default claims sweep extended to 65536 and 262144, so the scaling fits
// span three decades of n (256 -> 262144). For pipelines whose every stage
// is near-linear on their instance family.
std::vector<int> three_decade_sweep(const std::vector<int>& base) {
  std::vector<int> ns = base;
  for (const int extra : {65536, 262144}) {
    if (ns.empty() || ns.back() < extra) ns.push_back(extra);
  }
  return ns;
}

// The witness search of the solver-backed pipelines: "none exists" and "the
// budget ran out first" are one rejection, as either leaves nothing to encode.
Labeling witness_or_reject(const Pipeline& pl, const Graph& g, const LclProblem& p) {
  auto solved = solve_lcl(g, p, kWitnessSolverBudget);
  if (!solved.has_value()) {
    throw InadmissibleInput(pl, std::string("a graph with a ") + p.name() + " found within " +
                                    std::to_string(kWitnessSolverBudget) + " search steps");
  }
  return std::move(*solved);
}

// Witness for the coloring pipelines: BFS parity where the instance is
// bipartite (the standard campaign families), the exact solver otherwise.
// One sweep both tests bipartiteness and yields the parity coloring.
std::vector<int> coloring_witness(const Pipeline& pl, const Graph& g, int colors) {
  if (auto parity = two_coloring(g, g.nodes())) return std::move(*parity);
  return witness_or_reject(pl, g, VertexColoringLcl(colors)).node_labels;
}

std::vector<std::string> label_digests(const std::vector<int>& labels) {
  std::vector<std::string> digests;
  digests.reserve(labels.size());
  for (const int l : labels) digests.push_back(std::to_string(l));
  return digests;
}

// ---------------------------------------------------------------------------

class OrientationPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kOrientation; }
  const char* name() const override { return "orientation"; }
  const char* paper_section() const override { return "§5"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kUniformBits; }
  SchemaType schema_type() const override { return SchemaType::kUniformFixedLength; }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_cycle(n, seed);
  }

  std::vector<int> sweep_ns(const std::vector<int>& base) const override {
    // Every stage is O(m) with m = n on the cycle instances.
    return three_decade_sweep(base);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    c.max_bits_per_node = 1.0;
    c.max_ones_ratio = 0.20;
    c.statement =
        "§5: 1 bit of advice per node yields an almost-balanced orientation in "
        "T(Δ) rounds independent of n; advice-free costs Ω(n) on a cycle";
    return c;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& /*cfg*/) const override {
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.bits = encode_orientation_advice(g).bits;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& /*cfg*/) const override {
    const auto res = decode_orientation(g, adv.bits);
    PipelineOutput out;
    out.orientation = res.orientation;
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& /*cfg*/) const override {
    return is_balanced_orientation(g, out.orientation, 1);
  }

  std::vector<std::string> node_digests(const Graph& g, const PipelineOutput& out) const override {
    std::vector<std::string> digests(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) {
      std::string s;
      for (const int e : g.incident_edges(v)) {
        s += out.orientation[static_cast<std::size_t>(e)] == EdgeDir::kForward ? 'f' : 'b';
      }
      digests[static_cast<std::size_t>(v)] = std::move(s);
    }
    return digests;
  }
};

class SplittingPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kSplitting; }
  const char* name() const override { return "splitting"; }
  const char* paper_section() const override { return "§5-ext"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kUniformBits; }
  SchemaType schema_type() const override { return SchemaType::kUniformFixedLength; }

  void admit(const Graph& g) const override {
    bool even = true;
    for (int v = 0; v < g.n(); ++v) even = even && g.degree(v) % 2 == 0;
    if (!even || !is_bipartite(g)) {
      throw InadmissibleInput(*this, "a bipartite graph with all degrees even");
    }
  }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_grid(n, seed, /*torus=*/true);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    c.max_bits_per_node = 1.0;
    c.max_ones_ratio = 0.30;
    c.statement =
        "§5-ext: red/blue degree splitting on bipartite even-degree graphs with "
        "1 bit of advice per node in rounds depending on Δ only";
    return c;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& /*cfg*/) const override {
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.bits = encode_splitting_advice(g).bits;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& /*cfg*/) const override {
    const auto res = decode_splitting(g, adv.bits);
    PipelineOutput out;
    out.edge_color = res.edge_color;
    out.node_color = res.node_color;
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& /*cfg*/) const override {
    return is_splitting(g, out.edge_color);
  }

  std::vector<std::string> node_digests(const Graph& g, const PipelineOutput& out) const override {
    std::vector<std::string> digests(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) {
      std::string s;
      for (const int e : g.incident_edges(v)) {
        s += std::to_string(out.edge_color[static_cast<std::size_t>(e)]);
        s += ',';
      }
      digests[static_cast<std::size_t>(v)] = std::move(s);
    }
    return digests;
  }
};

class ThreeColoringPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kThreeColoring; }
  const char* name() const override { return "three_coloring"; }
  const char* paper_section() const override { return "§7"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kUniformBits; }
  SchemaType schema_type() const override { return SchemaType::kUniformFixedLength; }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_grid(n, seed, /*torus=*/false);
  }

  std::vector<int> sweep_ns(const std::vector<int>& base) const override {
    // The graph kernels are ball-local, so every stage is near-linear.
    return three_decade_sweep(base);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    c.max_bits_per_node = 1.0;
    // The paper remarks this advice "just barely suffices": the ones ratio
    // stays ≈ the density of color class 1 and is conjectured not
    // sparsifiable — so the bound is a loose ¾, not an ε.
    c.max_ones_ratio = 0.75;
    c.statement =
        "Thm 7.1: 3-colorable graphs are 3-colored with exactly 1 bit per node "
        "(trivial schema: 2 bits) in poly(Δ) rounds";
    return c;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& /*cfg*/) const override {
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.bits = encode_three_coloring_advice(g, coloring_witness(*this, g, 3)).bits;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& /*cfg*/) const override {
    const auto res = decode_three_coloring(g, adv.bits);
    PipelineOutput out;
    out.node_color = res.coloring;
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& /*cfg*/) const override {
    return is_proper_coloring(g, out.node_color, 3);
  }

  std::vector<std::string> node_digests(const Graph& /*g*/,
                                        const PipelineOutput& out) const override {
    return label_digests(out.node_color);
  }
};

class DeltaColoringPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kDeltaColoring; }
  const char* name() const override { return "delta_coloring"; }
  const char* paper_section() const override { return "§6"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kVarSchema; }
  SchemaType schema_type() const override { return SchemaType::kVariableLength; }

  // Δ-colorable, decided structurally: with Δ <= 2 the palette is 2 colors;
  // with Δ >= 3 Brooks' theorem leaves K_{Δ+1} as the only obstruction, and
  // a component of Δ + 1 nodes all of degree Δ is exactly that clique.
  void admit(const Graph& g) const override {
    const int delta = g.max_degree();
    if (delta <= 2) {
      if (!is_bipartite(g)) throw InadmissibleInput(*this, "a bipartite graph when Δ <= 2");
      return;
    }
    const auto full = [&](int v) { return g.degree(v) == delta; };
    for (const auto& members : connected_components(g).members) {
      if (static_cast<int>(members.size()) == delta + 1 &&
          std::all_of(members.begin(), members.end(), full)) {
        throw InadmissibleInput(*this, "no K_" + std::to_string(delta + 1) + " component (Brooks)");
      }
    }
  }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_grid(n, seed, /*torus=*/false);
  }

  std::vector<int> sweep_ns(const std::vector<int>& base) const override {
    // The graph kernels are ball-local, so every stage is near-linear.
    return three_decade_sweep(base);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    // Decode rounds are bounded by the config constants (stage-1 clustering
    // + local_fix_passes * 7 + repair escalation), but the pass count only
    // saturates well past bench-scale n: over a feasible sweep the
    // observable signature is a slowly filling curve the fitter reads as
    // log. O(log n) is the honest declarable ceiling at this scale;
    // constant would need sweeps far beyond the saturation point.
    c.rounds_growth = obs::GrowthClass::kLog;
    // Cor 6.2 converts the composable variable-length schema to <= 1
    // uniform bit per node; the var-schema form measured here stores less.
    c.max_bits_per_node = 1.0;
    c.statement =
        "Thm 6.1 / Cor 6.2: Δ-colorable graphs are Δ-colored with advice in "
        "T(Δ) rounds; the composable schema converts to 1 bit per node";
    return c;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& /*cfg*/) const override {
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.var =
        encode_delta_coloring_advice(g, coloring_witness(*this, g, std::max(2, g.max_degree())))
            .advice;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& /*cfg*/) const override {
    const auto res = decode_delta_coloring(g, adv.var);
    PipelineOutput out;
    out.node_color = res.coloring;
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& /*cfg*/) const override {
    return is_proper_coloring(g, out.node_color, std::max(2, g.max_degree()));
  }

  std::vector<std::string> node_digests(const Graph& /*g*/,
                                        const PipelineOutput& out) const override {
    return label_digests(out.node_color);
  }
};

class SubexpLclPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kSubexpLcl; }
  const char* name() const override { return "subexp_lcl"; }
  const char* paper_section() const override { return "§4"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kUniformBits; }
  SchemaType schema_type() const override { return SchemaType::kUniformFixedLength; }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_cycle(n, seed);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    c.max_bits_per_node = 1.0;
    c.max_ones_ratio = 0.25;  // at the bench-scale x = 60; shrinks with x (E8)
    c.statement =
        "Thm 4.1: any LCL on a bounded-degree family of subexponential growth is "
        "solvable with 1 bit of advice per node in O(1) rounds, with arbitrarily "
        "sparse advice";
    return c;
  }

  PipelineConfig sweep_config(int /*n*/) const override {
    PipelineConfig cfg;
    // One x must serve the whole sweep (per-n x would make rounds track x,
    // not n). The binding constraint is the phase-code path budget
    // y = x/2 >= ~4*log2(colors), where the greedy distance-(5x) coloring
    // uses up to ~10x colors as n grows; x = 150 leaves comfortable slack
    // (x = 60 overflows the budget once n reaches bench-sweep sizes).
    cfg.subexp.x = 150;
    return cfg;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& cfg) const override {
    const Labeling witness = witness_or_reject(*this, g, subexp_demo_lcl());
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.bits = encode_subexp_lcl_advice(g, subexp_demo_lcl(), cfg.subexp, &witness).bits;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& cfg) const override {
    const auto res = decode_subexp_lcl(g, subexp_demo_lcl(), adv.bits, cfg.subexp);
    PipelineOutput out;
    out.labeling = res.labeling;
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& /*cfg*/) const override {
    return is_valid_labeling(g, subexp_demo_lcl(), out.labeling);
  }

  std::vector<std::string> node_digests(const Graph& /*g*/,
                                        const PipelineOutput& out) const override {
    return label_digests(out.labeling.node_labels);
  }
};

class DecompressPipeline final : public Pipeline {
 public:
  PipelineId id() const override { return PipelineId::kDecompress; }
  const char* name() const override { return "decompress"; }
  const char* paper_section() const override { return "§1.5"; }
  AdviceCarrier carrier() const override { return AdviceCarrier::kNodeLabels; }
  SchemaType schema_type() const override { return SchemaType::kVariableLength; }

  Graph make_instance(int n, std::uint64_t seed) const override {
    return even_cycle(n, seed);
  }

  PipelineClaims claims() const override {
    PipelineClaims c;
    // ⌈d/2⌉+1 bits at a degree-d node; the sweep family is a cycle (d = 2),
    // so the per-node ceiling is 2 — strictly below the trivial d bits for
    // d >= 4 and one above the d/2 information-theoretic floor.
    c.max_bits_per_node = 2.0;
    c.statement =
        "§1.5: any X ⊆ E can be stored with ⌈d/2⌉+1 bits at a degree-d node "
        "(lower bound d/2, trivial d) and decompressed in T(Δ) rounds";
    return c;
  }

  PipelineAdvice do_encode(const Graph& g, const PipelineConfig& cfg) const override {
    PipelineAdvice adv;
    adv.carrier = carrier();
    adv.labels =
        compress_edge_set(g, hashed_edge_membership(g, cfg.seed, kDecompressDensity)).labels;
    return adv;
  }

  PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& /*cfg*/) const override {
    CompressedEdgeSet c;
    c.labels = adv.labels;
    const auto res = decompress_edge_set(g, c);
    PipelineOutput out;
    out.edge_in_x = res.in_x;
    out.edge_known.assign(static_cast<std::size_t>(g.m()), 1);
    out.rounds = res.rounds;
    return out;
  }

  bool do_verify(const Graph& g, const PipelineOutput& out,
              const PipelineConfig& cfg) const override {
    // The instance is a pure function of (seed, edge IDs), so ground truth
    // is regenerable on any ID-preserving (sub)graph. Unknown edges are
    // excluded: they are the guarded decoder's explicitly flagged scope.
    const auto truth = hashed_edge_membership(g, cfg.seed, kDecompressDensity);
    for (int e = 0; e < g.m(); ++e) {
      if (!out.edge_known.empty() && out.edge_known[static_cast<std::size_t>(e)] == 0) continue;
      if (out.edge_in_x[static_cast<std::size_t>(e)] != truth[static_cast<std::size_t>(e)]) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::string> node_digests(const Graph& g, const PipelineOutput& out) const override {
    std::vector<std::string> digests(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) {
      std::string s;
      for (const int e : g.incident_edges(v)) {
        const bool known =
            out.edge_known.empty() || out.edge_known[static_cast<std::size_t>(e)] != 0;
        s += known ? (out.edge_in_x[static_cast<std::size_t>(e)] != 0 ? '1' : '0') : '?';
      }
      digests[static_cast<std::size_t>(v)] = std::move(s);
    }
    return digests;
  }
};

}  // namespace

// NVI wrappers — the single instrumentation point for all six pipelines.
// Each wrapper opens a span named "pipeline.<stage>/<registry name>" and
// folds the stage counters once per call, after the do_* hook returns, so
// the accounting is a pure function of the call and can never perturb it.

PipelineAdvice Pipeline::encode(const Graph& g, const PipelineConfig& cfg) const {
  LAD_TM_SPAN(span, std::string("pipeline.encode/") + name(), "pipeline");
  admit(g);
  PipelineAdvice adv = do_encode(g, cfg);
  LAD_TM({
    auto& m = obs::core();
    m.pipeline_encodes.add(1);
    m.advice_bits_written.add(adv.stats(g.n()).total_bits);
  });
  return adv;
}

PipelineOutput Pipeline::decode(const Graph& g, const PipelineAdvice& adv,
                                const PipelineConfig& cfg) const {
  LAD_CHECK_MSG(adv.carrier != AdviceCarrier::kUniformBits || adv.bits.empty() ||
                    static_cast<int>(adv.bits.size()) == g.n(),
                "uniform advice must carry exactly one bit per node");
  LAD_TM_SPAN(span, std::string("pipeline.decode/") + name(), "pipeline");
  PipelineOutput out = do_decode(g, adv, cfg);
  LAD_TM({
    auto& m = obs::core();
    m.pipeline_decodes.add(1);
    m.advice_bits_read.add(adv.stats(g.n()).total_bits);
    m.pipeline_decode_rounds.add(out.rounds);
    m.decode_rounds.observe(out.rounds);
  });
  return out;
}

bool Pipeline::verify(const Graph& g, const PipelineOutput& out,
                      const PipelineConfig& cfg) const {
  LAD_TM_SPAN(span, std::string("pipeline.verify/") + name(), "pipeline");
  const bool ok = do_verify(g, out, cfg);
  LAD_TM(obs::core().pipeline_verifies.add(1));
  return ok;
}

AdviceStats PipelineAdvice::stats(int n) const {
  switch (carrier) {
    case AdviceCarrier::kUniformBits:
      return advice_stats(advice_from_bits(bits));
    case AdviceCarrier::kNodeLabels:
      return advice_stats(labels);
    case AdviceCarrier::kVarSchema: {
      Advice a(static_cast<std::size_t>(n));
      for (const auto& [node, packed] : pack_var_advice(var)) {
        a[static_cast<std::size_t>(node)] = packed;
      }
      return advice_stats(a);
    }
  }
  LAD_UNREACHABLE("unknown AdviceCarrier");
}

std::vector<std::string> PipelineAdvice::node_strings(int n) const {
  std::vector<std::string> out(static_cast<std::size_t>(n));
  switch (carrier) {
    case AdviceCarrier::kUniformBits:
      for (int v = 0; v < n && v < static_cast<int>(bits.size()); ++v) {
        out[static_cast<std::size_t>(v)].assign(1, bits[static_cast<std::size_t>(v)] != 0 ? '1' : '0');
      }
      return out;
    case AdviceCarrier::kNodeLabels:
      for (int v = 0; v < n && v < static_cast<int>(labels.size()); ++v) {
        out[static_cast<std::size_t>(v)] = labels[static_cast<std::size_t>(v)].to_string();
      }
      return out;
    case AdviceCarrier::kVarSchema:
      for (const auto& [node, packed] : pack_var_advice(var)) {
        if (node >= 0 && node < n) out[static_cast<std::size_t>(node)] = packed.to_string();
      }
      return out;
  }
  LAD_UNREACHABLE("unknown AdviceCarrier");
}

const std::vector<const Pipeline*>& pipelines() {
  static const OrientationPipeline orientation;
  static const SplittingPipeline splitting;
  static const ThreeColoringPipeline three_coloring;
  static const DeltaColoringPipeline delta_coloring;
  static const SubexpLclPipeline subexp_lcl;
  static const DecompressPipeline decompress;
  static const std::vector<const Pipeline*> all = {
      &orientation, &splitting, &three_coloring, &delta_coloring, &subexp_lcl, &decompress};
  return all;
}

const Pipeline& pipeline(PipelineId id) {
  for (const Pipeline* p : pipelines()) {
    if (p->id() == id) return *p;
  }
  LAD_UNREACHABLE("PipelineId not in registry");
}

const Pipeline* find_pipeline(std::string_view name) {
  for (const Pipeline* p : pipelines()) {
    if (name == p->name()) return p;
  }
  return nullptr;
}

const LclProblem& subexp_demo_lcl() {
  static const VertexColoringLcl problem(3);
  return problem;
}

Graph even_cycle(int n, std::uint64_t seed) {
  const int len = std::max(8, n);
  return make_cycle(len + len % 2, IdMode::kRandomDense, seed);
}

Graph even_grid(int n, std::uint64_t seed, bool torus) {
  // At least 16 cells, so both sides come out >= 4.
  const int cells = std::max(16, n);
  int w = static_cast<int>(std::sqrt(static_cast<double>(cells)));
  w -= w % 2;
  int h = (cells + w - 1) / w;
  h += h % 2;
  return torus ? make_torus(w, h, IdMode::kRandomDense, seed)
               : make_grid(w, h, IdMode::kRandomDense, seed);
}

std::vector<char> hashed_edge_membership(const Graph& g, std::uint64_t seed, double density) {
  std::vector<char> in_x(static_cast<std::size_t>(g.m()), 0);
  for (int e = 0; e < g.m(); ++e) {
    const auto a = static_cast<std::uint64_t>(g.id(g.edge_u(e)));
    const auto b = static_cast<std::uint64_t>(g.id(g.edge_v(e)));
    const auto h = hash4(seed, kTagMembership, std::min(a, b), std::max(a, b));
    in_x[static_cast<std::size_t>(e)] = unit_from_hash(h) < density ? 1 : 0;
  }
  return in_x;
}

}  // namespace lad
