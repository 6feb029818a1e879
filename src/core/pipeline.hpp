// The Pipeline registry — one uniform interface over the six paper
// pipelines (§5 orientation, §5-ext splitting, §7 three-coloring, §6
// Δ-coloring, §4 subexponential-growth LCL, §1.5 edge-set decompression).
//
// Before this layer existed, every consumer that wanted "all decoders" —
// the fault campaigns, the faultsim/audit CLI, the bench harness — carried
// its own six-way switch over hand-rolled encode/decode/verify calls. The
// Pipeline interface factors that out:
//
//   * admit(g)              — the theorem's precondition, run by encode;
//   * encode(g, cfg)        — the centralized prover (Definition 2's f);
//                             witness/instance generation is internal and
//                             seeded from cfg, so callers need no
//                             per-pipeline knowledge;
//   * decode(g, adv, cfg)   — the strict LOCAL decoder (throws
//                             ContractViolation on detectably bad advice);
//   * verify(g, out, cfg)   — the independent centralized checker;
//   * node_digests(g, out)  — per-node output digests (what a node would
//                             publish to a distributed verification echo);
//   * advice-schema metadata (carrier, Definition 2 type, paper section).
//
// The registry is the supported extension point: implement Pipeline for a
// new decoder, add it to pipelines(), and the audit CLI, the campaign
// harness, and `lad bench` pick it up without further dispatch code. The
// original free functions (encode_orientation_advice, decode_splitting,
// ...) remain the implementation and the fine-grained API the experiments
// read richer results from; the Pipeline classes are thin adapters over
// them.
//
// Guarded (fault-tolerant) decoding takes a registry pipeline:
// robust::guarded_decode in faults/robust.hpp. It lives in the faults
// layer because repair needs the robustness machinery, which depends on
// this one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "advice/advice.hpp"
#include "advice/schema.hpp"
#include "core/decompress.hpp"
#include "core/delta_coloring.hpp"
#include "core/orientation.hpp"
#include "core/splitting.hpp"
#include "core/subexp_lcl.hpp"
#include "core/three_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/graph.hpp"
#include "lcl/lcl.hpp"
#include "obs/fit.hpp"

namespace lad {

enum class PipelineId {
  kOrientation,    // §5 almost-balanced orientation
  kSplitting,      // §5-ext degree splitting
  kThreeColoring,  // §7 3-coloring
  kDeltaColoring,  // §6 Δ-coloring
  kSubexpLcl,      // §4 generic LCL under subexponential growth
  kDecompress,     // §1.5 edge-set decompression
};

/// How a pipeline's advice is physically carried (the three concrete
/// representations behind Definition 2's schema types).
enum class AdviceCarrier {
  kUniformBits,  // one bit per node (std::vector<char>)
  kVarSchema,    // variable-length tagged entries (VarAdvice)
  kNodeLabels,   // per-node bit-strings (Advice)
};

/// What a registry caller may set: the instance seed and the §4 scale.
/// Every other parameter of the six pipelines is a constant or is derived
/// from n and Δ by the stage that reads it (DESIGN.md §8.5).
struct PipelineConfig {
  /// Seeds internal witness/instance generation (decompress membership).
  std::uint64_t seed = 1;
  /// subexp.x = 0 is derived from n (subexp_at_scale).
  SubexpLclParams subexp;
};

/// §1.5: density of the hashed membership set X that encode() compresses.
inline constexpr double kDecompressDensity = 0.5;

/// Uniform advice carrier. Exactly one representation is populated,
/// according to Pipeline::carrier().
struct PipelineAdvice {
  AdviceCarrier carrier = AdviceCarrier::kUniformBits;
  std::vector<char> bits;  // kUniformBits
  VarAdvice var;           // kVarSchema
  Advice labels;           // kNodeLabels (§1.5 compressed edge set)

  /// Definition 2/3 accounting of whichever carrier is populated.
  AdviceStats stats(int n) const;
  /// Per-node printable advice strings (locality-audit instances).
  std::vector<std::string> node_strings(int n) const;
};

/// Uniform decode result. Pipelines populate the fields that apply; the
/// rest stay empty.
struct PipelineOutput {
  Orientation orientation;      // kOrientation
  std::vector<int> edge_color;  // kSplitting: 1 = red, 2 = blue
  std::vector<int> node_color;  // kSplitting (1/2), kThreeColoring, kDeltaColoring
  Labeling labeling;            // kSubexpLcl
  std::vector<char> edge_in_x;  // kDecompress: membership per edge
  std::vector<char> edge_known; // kDecompress: recovered (guard-verified) edges
  int rounds = 0;
};

/// The machine-checkable form of a pipeline's paper theorem: expected
/// growth classes versus n for the three measured series, optional absolute
/// bounds, and the statement being claimed. obs/claims.hpp assembles the
/// claim registry from these hooks, so registering a pipeline registers its
/// claims — the two registries cannot drift apart.
struct PipelineClaims {
  obs::GrowthClass rounds_growth = obs::GrowthClass::kConstant;
  obs::GrowthClass bits_growth = obs::GrowthClass::kConstant;
  /// Only meaningful for AdviceCarrier::kUniformBits pipelines.
  obs::GrowthClass ones_growth = obs::GrowthClass::kConstant;
  /// Absolute ceilings checked pointwise at every sweep n; <= 0 = no bound.
  double max_bits_per_node = 0;
  double max_ones_ratio = 0;
  /// The theorem, quoted (the source of truth is arXiv:2405.04519).
  const char* statement = "";
};

class Pipeline {
 public:
  virtual ~Pipeline() = default;

  virtual PipelineId id() const = 0;
  /// Stable registry name (also the CLI spelling), e.g. "three_coloring".
  virtual const char* name() const = 0;
  virtual const char* paper_section() const = 0;
  virtual AdviceCarrier carrier() const = 0;
  /// Definition 2 schema type of the advice this pipeline emits.
  virtual SchemaType schema_type() const = 0;

  /// The admission point (DESIGN.md §8.5), run by encode() before any
  /// work: throws InadmissibleInput when g fails this pipeline's structural
  /// precondition, in O(n + m). Accepts any graph unless overridden.
  virtual void admit(const Graph& /*g*/) const {}

  /// An admissible graph family instance (seeded IDs) with roughly `n`
  /// nodes — the uniform way for benches, smoke tests, and audits to get a
  /// valid instance per pipeline.
  virtual Graph make_instance(int n, std::uint64_t seed) const = 0;

  /// Claim hooks (the claims observatory, DESIGN.md §9.6): the growth
  /// classes and bounds this pipeline's theorem promises on make_instance
  /// sweeps, and the config every n-point of such a sweep runs with (subexp
  /// pins one x for the whole sweep; everything else uses defaults).
  virtual PipelineClaims claims() const = 0;
  virtual PipelineConfig sweep_config(int /*n*/) const { return {}; }

  /// Sweep sizes for the claims observatory, given the caller's base sweep:
  /// a pipeline whose stack stays affordable at large n extends the base so
  /// the scaling-law fits span >= 3 decades (the default base covers ~1.5).
  /// Only applied when the caller did not pin sizes (`lad verify-claims`
  /// without --ns); must return at least 3 sizes if it changes the base.
  virtual std::vector<int> sweep_ns(const std::vector<int>& base) const { return base; }

  // The three stage entry points are non-virtual wrappers (NVI): every
  // consumer of any of the six pipelines funnels through pipeline.cpp's
  // three wrapper bodies, which is where the telemetry spans and the
  // encode/decode/verify counters live — one instrumentation point instead
  // of six copies per stage. Subclasses override the do_* hooks below.

  /// Centralized prover. Runs admit(g), then generates any witness it needs
  /// (parity on bipartite instances, else the exact solver, whose empty
  /// search throws InadmissibleInput too), seeded by cfg.
  PipelineAdvice encode(const Graph& g, const PipelineConfig& cfg) const;

  /// Strict LOCAL decoder; throws ContractViolation on advice that is
  /// locally detectably inconsistent.
  PipelineOutput decode(const Graph& g, const PipelineAdvice& adv,
                        const PipelineConfig& cfg) const;

  /// Independent centralized validity check of a decode against the
  /// instance that encode(cfg) describes on g.
  bool verify(const Graph& g, const PipelineOutput& out, const PipelineConfig& cfg) const;

  /// Per-node output digest: the string a node publishes to a distributed
  /// verification echo. Byte-stable (campaign golden outputs pin it).
  virtual std::vector<std::string> node_digests(const Graph& g,
                                                const PipelineOutput& out) const = 0;

 protected:
  virtual PipelineAdvice do_encode(const Graph& g, const PipelineConfig& cfg) const = 0;
  virtual PipelineOutput do_decode(const Graph& g, const PipelineAdvice& adv,
                                   const PipelineConfig& cfg) const = 0;
  virtual bool do_verify(const Graph& g, const PipelineOutput& out,
                         const PipelineConfig& cfg) const = 0;
};

/// A pipeline's named rejection (DESIGN.md §8.5): the graph fails the
/// theorem's structural precondition, or the witness search finds no
/// witness within its budget. what() names the requirement. Unlike
/// ContractViolation it signals no bug; every `lad` verb exits 2 on it.
class InadmissibleInput : public std::invalid_argument {
 public:
  InadmissibleInput(const Pipeline& p, const std::string& requirement)
      : std::invalid_argument(std::string(p.name()) + ": inadmissible input: requires " +
                              requirement) {}
};

/// The six paper pipelines, in PipelineId order. Entries are static
/// singletons — pointers stay valid for the program lifetime.
const std::vector<const Pipeline*>& pipelines();

/// Registry lookup by id (total) / by name (nullptr if unknown).
const Pipeline& pipeline(PipelineId id);
const Pipeline* find_pipeline(std::string_view name);

/// The demonstration LCL of the subexp_lcl entry: the §4 construction is
/// generic in the problem; campaigns and benches exercise 3-coloring.
const LclProblem& subexp_demo_lcl();

/// The instance shapes of make_instance and the fault campaigns, with
/// about n nodes (seeded IDs): a cycle of even length >= 8, and a grid or
/// torus with even sides >= 4 near sqrt(n). All are bipartite; the torus is
/// 4-regular.
Graph even_cycle(int n, std::uint64_t seed);
Graph even_grid(int n, std::uint64_t seed, bool torus);

/// §1.5 hashed membership instance: in_x[e] is a pure function of
/// (seed, edge endpoint IDs, density), so it can be regenerated for
/// verification on any subgraph that preserves node IDs.
std::vector<char> hashed_edge_membership(const Graph& g, std::uint64_t seed, double density);

}  // namespace lad
