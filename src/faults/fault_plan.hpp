// Deterministic, seed-driven fault injection (the adversary of the
// robustness story).
//
// The paper's §1.2 corollary turns any advice schema into a locally
// checkable one: corrupted advice is rejected by some node inspecting only
// a constant-radius ball. This header supplies the *faults* side of that
// contract — a FaultPlan describes an adversary at three layers:
//
//   * advice faults  — per-node bit flips, erasure to the empty string,
//     byzantine rewrites, variable-length truncation (Definition 2 schemas
//     and VarAdvice schema entries alike);
//   * graph faults   — edge deletions between encode and decode (scattered
//     or burst/regional), i.e. the advice is *stale* for the graph being
//     decoded;
//   * engine faults  — per-(round, directed edge) message drop, payload
//     corruption, duplication and bounded delay, plus node crash-stop or
//     crash-recovery, applied inside Engine::run behind the
//     EngineFaultModel hook.
//
// Every decision is a pure function of (seed, site): two runs with the same
// FaultPlan inject byte-identical faults regardless of iteration order, so
// fault campaigns are exactly reproducible. All randomness is derived from
// per-layer sub-seeds (splitmix64) — layers cannot perturb each other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advice/advice.hpp"
#include "advice/schema.hpp"
#include "graph/graph.hpp"
#include "local/engine.hpp"
#include "util/hashing.hpp"

namespace lad::faults {

enum class AdviceFaultKind {
  kBitFlip,    // flip a few bits of the label in place
  kErasure,    // replace the label with the empty string
  kByzantine,  // replace the label with adversarial garbage
  kTruncate,   // keep only a strict prefix of the label
};

const char* to_string(AdviceFaultKind kind);

/// How the adversary picks its advice victims. All modes are deterministic
/// pure functions of (sub-seed, graph): kUniform hashes each node ID
/// independently (the oblivious adversary); the other two target the nodes
/// a worst-case adversary would — high-degree hubs, or nodes on the
/// boundary between ruling-set regions, where a corrupted label poisons
/// the most downstream decisions.
enum class AdviceTargeting {
  kUniform,         // independent per-node hash < fraction
  kHighDegree,      // the ceil(fraction*n) nodes of highest degree
  kRegionBoundary,  // nodes with a neighbor in a different ruling-set region
};

const char* to_string(AdviceTargeting targeting);

struct AdviceFaultSpec {
  /// Fraction of nodes whose advice is attacked (selected by hash).
  double node_fraction = 0.0;
  /// Kinds mixed into the attack; a target node's kind is chosen by hash.
  /// Empty means the advice layer is fault-free.
  std::vector<AdviceFaultKind> kinds;
  /// Upper bound on flipped bits per label for kBitFlip.
  int max_flips_per_label = 3;
  /// Victim selection; non-uniform modes attack exactly
  /// round(fraction * n) nodes, worst ones first.
  AdviceTargeting targeting = AdviceTargeting::kUniform;
};

struct EngineFaultSpec {
  /// Per-(round, directed edge) probability a sent message is dropped.
  double message_drop_prob = 0.0;
  /// Per delivered message probability the payload is corrupted in place.
  double message_corrupt_prob = 0.0;
  /// Fraction of nodes that crash during the run.
  double crash_fraction = 0.0;
  /// Crash rounds are drawn from [1, crash_round_window].
  int crash_round_window = 4;
  /// 0 = crash-stop (a crashed node stays down forever). k > 0 =
  /// crash-recovery: the node is down for exactly k rounds, then rejoins
  /// with blank state (Engine discards its pending messages and calls
  /// SyncAlgorithm::on_recover) and must re-converge.
  int crash_recovery_rounds = 0;
  /// Per delivered message probability a stale duplicate arrives again one
  /// round later (discarded if a fresh message occupies the port).
  double message_duplicate_prob = 0.0;
  /// Per message probability delivery is delayed by 1..max_delay_rounds
  /// extra rounds instead of arriving next round.
  double message_delay_prob = 0.0;
  int max_delay_rounds = 2;
};

struct GraphFaultSpec {
  /// Fraction of edges deleted between encode and decode (stale advice).
  double edge_delete_fraction = 0.0;
  /// Burst (regional) faults: every edge inside the radius-`burst_radius`
  /// ball around each of `burst_count` hash-chosen epicenter nodes is
  /// deleted — a localized outage instead of scattered deletions.
  int burst_count = 0;
  int burst_radius = 1;
};

/// A complete, self-describing adversary. Same plan => same faults.
struct FaultPlan {
  /// Base seed every layer sub-seed derives from. NOTE: fault *campaigns*
  /// (faults/campaign.hpp) ignore this field — each trial overwrites it
  /// with a seed derived from (CampaignConfig::seed, trial index). It is
  /// honored only when a FaultInjector is constructed directly.
  std::uint64_t seed = 0;
  AdviceFaultSpec advice;
  EngineFaultSpec engine;
  GraphFaultSpec graph;

  bool any_advice_faults() const {
    return advice.node_fraction > 0.0 && !advice.kinds.empty();
  }
  bool any_engine_faults() const {
    return engine.message_drop_prob > 0.0 || engine.message_corrupt_prob > 0.0 ||
           engine.crash_fraction > 0.0 || engine.message_duplicate_prob > 0.0 ||
           engine.message_delay_prob > 0.0;
  }
  bool any_graph_faults() const {
    return graph.edge_delete_fraction > 0.0 || graph.burst_count > 0;
  }
};

enum class FaultLayer { kAdvice, kGraph, kEngine };

const char* to_string(FaultLayer layer);

/// One injected fault, for the report and for blast-radius accounting.
struct FaultEvent {
  FaultLayer layer = FaultLayer::kAdvice;
  AdviceFaultKind advice_kind = AdviceFaultKind::kBitFlip;  // kAdvice only
  int node = -1;   // primary site (node index); edge_u for graph faults
  int other = -1;  // secondary site (edge_v for graph faults)
  std::string detail;
};

/// Stateless EngineFaultModel driven by an EngineFaultSpec and a sub-seed.
/// With crash_recovery_rounds == 0 crash decisions are monotone in the
/// round (crash-stop); with k > 0 each victim is down for exactly the
/// interval [crash_round, crash_round + k) and then rejoins (crash-
/// recovery). Either way every answer is a pure function of (seed, site):
/// each decision stream is keyed from (seed, tag) once, at construction.
class HashedEngineFaults final : public EngineFaultModel {
 public:
  HashedEngineFaults(std::uint64_t seed, EngineFaultSpec spec);

  bool crashed(int round, int v) const override;
  bool drop_message(int round, int from, int to) const override;
  bool corrupt_message(int round, int from, int to, std::string& payload) const override;
  bool duplicate_message(int round, int from, int to) const override;
  int delay_rounds(int round, int from, int to) const override;

  /// True if node v is a crash victim (it will crash at some round >= 1).
  bool crash_selected(int v) const;

 private:
  EngineFaultSpec spec_;
  HashStream drop_, corrupt_sel_, corrupt_pos_, dup_, delay_sel_, delay_len_;  // per message
  HashStream crash_sel_, crash_round_;                                        // per node
};

/// Applies a FaultPlan. Each layer draws from its own derived sub-seed, so
/// e.g. enabling engine faults never changes which advice bits get flipped.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// Attacks per-node labels in place (Definition 2 advice).
  void corrupt_advice(const Graph& g, Advice& advice);

  /// Attacks uniform 1-bit advice given as a raw bit vector: targeted nodes
  /// get their bit flipped (the only meaningful attack on one bit).
  void corrupt_bits(const Graph& g, std::vector<char>& bits);

  /// Attacks a variable-length schema: erases, rewrites, or truncates the
  /// schema entries stored at targeted storage nodes.
  void corrupt_var_advice(const Graph& g, VarAdvice& advice);

  /// Deletes a hashed subset of edges; node set and dense-index order are
  /// preserved so that per-node advice still lines up by index.
  Graph apply_graph_faults(const Graph& g);

  /// The engine-layer adversary for Engine::set_fault_model.
  const HashedEngineFaults& engine_faults() const { return engine_model_; }

  /// Everything injected so far through this injector.
  const std::vector<FaultEvent>& events() const { return events_; }

  /// The advice-layer victim set on g, one flag per node index, as selected
  /// by the plan's AdviceTargeting mode. A pure function of (sub-seed,
  /// graph); kUniform reproduces the legacy independent per-node hash
  /// bit-for-bit. Exposed for tests and reports.
  std::vector<char> advice_target_mask(const Graph& g) const;

  /// Distinct node indices touched by injected faults, plus the crash
  /// victims the engine model would select on g — the sources for
  /// blast-radius BFS. Sorted ascending.
  std::vector<int> fault_site_nodes(const Graph& g) const;

 private:
  std::uint64_t advice_seed() const { return hash2(plan_.seed, 0xADu); }
  std::uint64_t graph_seed() const { return hash2(plan_.seed, 0x6EAFu); }
  std::uint64_t engine_seed() const { return hash2(plan_.seed, 0xE6u); }

  AdviceFaultKind kind_for(const HashStream& kind, NodeId id) const;

  FaultPlan plan_;
  HashedEngineFaults engine_model_;
  std::vector<FaultEvent> events_;
};

}  // namespace lad::faults
