#include "faults/campaign.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "graph/io.hpp"
#include "local/engine.hpp"
#include "obs/export.hpp"
#include "obs/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "obs/version.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace lad::faults {
namespace {

constexpr std::uint64_t kTagTrial = 0x7a1;
constexpr std::uint64_t kGraphShapeSeed = 7;

void merge_sorted_unique(std::vector<int>& into, const std::vector<int>& add) {
  into.insert(into.end(), add.begin(), add.end());
  std::sort(into.begin(), into.end());
  into.erase(std::unique(into.begin(), into.end()), into.end());
}

// Routes the injector's advice attack through the carrier's channel: bit
// flips for uniform bits, schema-entry attacks for VarAdvice, label attacks
// for per-node bit-strings.
void corrupt_pipeline_advice(FaultInjector& inj, const Graph& g, PipelineAdvice& adv) {
  switch (adv.carrier) {
    case AdviceCarrier::kUniformBits:
      inj.corrupt_bits(g, adv.bits);
      return;
    case AdviceCarrier::kVarSchema:
      inj.corrupt_var_advice(g, adv.var);
      return;
    case AdviceCarrier::kNodeLabels:
      inj.corrupt_advice(g, adv.labels);
      return;
  }
  LAD_UNREACHABLE("unknown AdviceCarrier");
}

// Ground-truth verdict: did an invalid output slip through with zero
// detection? For §1.5 the instance is regenerable on any ID-preserving
// (sub)graph, so every guard-verified edge must carry the original
// membership bit; a mismatch means the guard passed on a wrong label —
// silent corruption by definition, whatever the report says.
bool silent_corruption(PipelineId id, const Graph& g, const robust::GuardedOutcome& res,
                       const PipelineConfig& cfg) {
  if (id != PipelineId::kDecompress) return !res.report.output_valid && !res.report.degraded();
  const auto truth = hashed_edge_membership(g, cfg.seed, kDecompressDensity);
  for (int e = 0; e < g.m(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (res.output.edge_known[i] != 0 && res.output.edge_in_x[i] != truth[i]) return true;
  }
  return false;
}

}  // namespace

Graph build_campaign_graph(PipelineId decoder, GraphFamily& family, int n) {
  if (decoder == PipelineId::kSplitting && family == GraphFamily::kGrid) {
    family = GraphFamily::kTorus;  // splitting needs even degrees
  }
  switch (family) {
    case GraphFamily::kCycle:
      return even_cycle(n, kGraphShapeSeed);
    case GraphFamily::kGrid:
      return even_grid(n, kGraphShapeSeed, /*torus=*/false);
    case GraphFamily::kTorus:
      return even_grid(n, kGraphShapeSeed, /*torus=*/true);
  }
  LAD_UNREACHABLE("unknown GraphFamily");
}

namespace {

// What one port of the echo has received: the number of copies and the
// first copy, kept exactly (up to 8 bytes inline, longer ones on the heap)
// in 16 bytes, so the per-port state of a million-node echo stays small.
// Trivial on purpose: the echo allocates its ports uninitialized, and each
// node sets up its own in its first step, which runs on the engine's pool,
// and releases them when it halts.
class PortCopies {
 public:
  PortCopies() = default;  // leaves the port uninitialized: see set_empty()
  PortCopies(const PortCopies&) = delete;
  PortCopies& operator=(const PortCopies&) = delete;

  /// Makes an uninitialized port empty (no copy, nothing to free).
  void set_empty() {
    len_ = 0;
    count_ = 0;
  }

  int count() const { return static_cast<int>(count_); }

  /// Records one more copy; false iff it differs from the first.
  bool record(std::string_view m) {
    if (count_++ > 0) return m == first();
    len_ = static_cast<std::uint32_t>(m.size());
    char* to = inline_;
    if (len_ > sizeof inline_) to = heap_ = new char[len_];
    if (len_ > 0) std::memcpy(to, m.data(), len_);
    return true;
  }

  /// Frees a heap copy and makes the port empty.
  void clear() {
    if (len_ > sizeof inline_) delete[] heap_;
    set_empty();
  }

 private:
  std::string_view first() const { return {len_ > sizeof inline_ ? heap_ : inline_, len_}; }

  union {
    char inline_[8];
    char* heap_;
  };
  std::uint32_t len_;
  std::uint32_t count_;
};
static_assert(std::is_trivially_default_constructible_v<PortCopies> &&
              std::is_trivially_destructible_v<PortCopies>);

// Distributed verification echo: every node broadcasts its output digest
// for `rounds` rounds; a receiver that misses a copy (drop / crashed
// neighbor) or sees differing copies (corruption) cannot certify and
// outputs "unverified". Crashed nodes never halt at all. Per-port state is
// flat over the graph's port slots (CSR adjacency offsets); each node owns
// its own ports from its first step to its halt, so the only serial per-run
// work is the per-node state byte.
class EchoVerify final : public SyncAlgorithm {
 public:
  EchoVerify(const std::vector<std::string>& digests, int rounds)
      : digests_(digests), rounds_(rounds) {}
  EchoVerify(const EchoVerify&) = delete;
  EchoVerify& operator=(const EchoVerify&) = delete;

  ~EchoVerify() override {
    // Halted nodes freed their ports when they halted, and a node that
    // never stepped has none: only nodes still listening (down at the end,
    // or cut off by max_rounds) hold copies.
    for (std::size_t v = 0; v < state_.size(); ++v) {
      if (state_[v] == kClean || state_[v] == kDirty) clear_ports(static_cast<int>(v));
    }
  }

  void init(const Graph& g) override {
    off_ = g.raw_adj_off();
    const auto slots = static_cast<std::size_t>(off_[static_cast<std::size_t>(g.n())]);
    ports_ = std::make_unique_for_overwrite<PortCopies[]>(slots);
    state_.assign(static_cast<std::size_t>(g.n()), kUnstarted);
  }

  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    const int r = ctx.round_number();
    if (r <= rounds_) ctx.broadcast(digests_[static_cast<std::size_t>(v)]);
    PortCopies* ports = ports_.get() + off_[static_cast<std::size_t>(v)];
    char& state = state_[static_cast<std::size_t>(v)];
    const int deg = ctx.degree();
    if (state == kUnstarted) {
      // First step: round 1, or the first after a crash-recovery rejoin.
      for (int p = 0; p < deg; ++p) ports[p].set_empty();
      state = kClean;
    }
    if (r >= 2) {
      for (int p = 0; p < deg; ++p) {
        if (!ctx.has_message(p)) continue;
        if (!ports[p].record(ctx.received(p))) state = kDirty;  // corrupted copy
      }
    }
    if (r == rounds_ + 1) {
      for (int p = 0; p < deg; ++p) {
        if (ports[p].count() != rounds_) state = kDirty;  // missing copy
        ports[p].clear();
      }
      const bool ok = state == kClean;
      ctx.halt(ok ? "ok" : "unverified");
      state = ok ? kCertified : kRejected;
    }
  }

  void on_recover(const Graph& /*g*/, int v) override {
    // Blank state for a crash-recovery rejoin: the node restarts the echo
    // protocol and sets up fresh ports in its next step. The copies it
    // missed while down keep it from certifying (counted as a detection),
    // exactly like a crash-stop victim. A node down since round 1 never
    // stepped, so it has no ports to free.
    if (state_[static_cast<std::size_t>(v)] != kUnstarted) clear_ports(v);
    state_[static_cast<std::size_t>(v)] = kUnstarted;
  }

  /// True iff node v halted with "ok": the verdict, without reading the
  /// output strings.
  bool certified(int v) const { return state_[static_cast<std::size_t>(v)] == kCertified; }

 private:
  // A node's progress. kClean and kDirty nodes are listening: their ports
  // are set up and may hold heap copies.
  enum State : char { kUnstarted, kClean, kDirty, kCertified, kRejected };

  void clear_ports(int v) {
    for (int s = off_[static_cast<std::size_t>(v)]; s < off_[static_cast<std::size_t>(v) + 1];
         ++s) {
      ports_[static_cast<std::size_t>(s)].clear();
    }
  }

  const std::vector<std::string>& digests_;
  int rounds_;
  std::span<const int> off_;
  std::unique_ptr<PortCopies[]> ports_;  // per port slot, set up by its node
  std::vector<char> state_;              // per node, a State
};

}  // namespace

EchoResult run_verification_echo(const Graph& g, const std::vector<std::string>& digests,
                                 int echo_rounds, const EngineFaultModel* faults,
                                 ThreadPool* pool) {
  LAD_CHECK(static_cast<int>(digests.size()) == g.n());
  Engine eng(g);
  if (faults != nullptr) eng.set_fault_model(faults);
  if (pool != nullptr) eng.set_thread_pool(pool);
  EchoVerify echo(digests, echo_rounds);
  const auto run = eng.run(echo, echo_rounds + 2);
  EchoResult res;
  for (int v = 0; v < g.n(); ++v) {
    if (!echo.certified(v)) res.unverified_nodes.push_back(v);
  }
  res.messages = run.messages;
  res.bytes = run.bytes;
  res.rounds = run.rounds;
  res.dropped = eng.fault_stats().dropped;
  res.corrupted = eng.fault_stats().corrupted;
  res.duplicated = eng.fault_stats().duplicated;
  res.delayed = eng.fault_stats().delayed;
  res.crashed = eng.fault_stats().crashed_nodes;
  res.recovered = eng.fault_stats().recovered_nodes;
  return res;
}

obs::RunReport observe_run(const Pipeline& p, const Graph& g, const std::string& source,
                           const PipelineConfig& cfg, const std::vector<int>& thread_counts,
                           int reps) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::RunReport report;
  report.reps = reps;
  report.git_commit = obs::kGitCommit;
  report.timestamp = obs::iso8601_utc_now();
  report.hardware_threads = ThreadPool::default_threads();
  for (const int threads : thread_counts) {
    ThreadPool pool(threads);
    PipelineAdvice adv;
    PipelineOutput out;
    std::vector<std::string> digests;
    bool ok = false;
    bool echo_clean = false;
    const auto pass = [&] {
      adv = p.encode(g, cfg);
      out = p.decode(g, adv, cfg);
      ok = p.verify(g, out, cfg);
      digests = p.node_digests(g, out);
      echo_clean = run_verification_echo(g, digests, kEchoRounds, /*faults=*/nullptr,
                                         threads > 1 ? &pool : nullptr)
                       .unverified_nodes.empty();
    };
    // The warmup absorbs page-cache, allocator, and frequency-governor
    // effects; every timed rep resets the instruments, so it leaves no
    // trace in the record.
    for (int w = 0; w < obs::profile_warmup_runs(reps); ++w) pass();
    double best_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      obs::reset_instruments();
      const obs::Stopwatch sw;
      pass();
      const double ms = sw.ms();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }

    obs::RunDeterministic slice;
    slice.pipeline = p.name();
    slice.source = source;
    slice.graph_digest = graph_digest_hex(g);
    slice.n = g.n();
    slice.m = g.m();
    slice.seed = cfg.seed;
    slice.decode_rounds = out.rounds;
    slice.verify_ok = ok && echo_clean;
    slice.output_digest = obs::fingerprint_hex(digests);
    slice.advice_bits = adv.stats(g.n()).total_bits;
    obs::RunMeasured row = obs::capture_instruments(threads, best_ms, slice);
    report.add_run(slice, std::move(row));
  }
  obs::set_enabled(was_enabled);
  return report;
}

const char* to_string(GraphFamily family) {
  switch (family) {
    case GraphFamily::kCycle:
      return "cycle";
    case GraphFamily::kGrid:
      return "grid";
    case GraphFamily::kTorus:
      return "torus";
  }
  LAD_UNREACHABLE("unknown GraphFamily");
}

std::optional<GraphFamily> parse_family(std::string_view name) {
  for (const GraphFamily f : {GraphFamily::kCycle, GraphFamily::kGrid, GraphFamily::kTorus}) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

FaultPlan default_mixed_plan() {
  FaultPlan plan;
  plan.advice.node_fraction = 0.02;
  plan.advice.kinds = {AdviceFaultKind::kBitFlip, AdviceFaultKind::kErasure,
                       AdviceFaultKind::kByzantine, AdviceFaultKind::kTruncate};
  plan.engine.message_drop_prob = 0.01;
  plan.engine.message_corrupt_prob = 0.01;
  plan.engine.crash_fraction = 0.005;
  plan.graph.edge_delete_fraction = 0.004;
  return plan;
}

std::string CampaignSummary::to_string() const {
  std::ostringstream os;
  os << "CampaignSummary{decoder=" << pipeline(decoder).name()
     << " family=" << lad::faults::to_string(family) << " n=" << n << " m=" << m
     << " trials=" << trials << "\n"
     << "  faults_injected=" << faults_injected << " degraded=" << trials_degraded
     << " output_valid=" << trials_output_valid << " flagged=" << trials_flagged
     << " residual=" << trials_residual << "\n"
     << "  silent_corruptions=" << silent_corruptions << " max_blast_radius=" << max_blast_radius
     << " detected=" << total_detected << " repaired_nodes=" << total_repaired_nodes
     << " flagged_nodes=" << total_flagged_nodes << "}";
  return os.str();
}

CampaignSummary run_fault_campaign(const CampaignConfig& config) {
  CampaignSummary sum;
  GraphFamily family = config.family;
  const Graph g0 = build_campaign_graph(config.decoder, family, config.n);
  sum.decoder = config.decoder;
  sum.family = family;
  sum.n = g0.n();
  sum.m = g0.m();
  sum.trials = config.trials;

  const Pipeline& p = pipeline(config.decoder);
  PipelineConfig pcfg;
  pcfg.seed = config.seed;

  // One-time encode on the pristine graph (the prover is centralized and
  // fault-free; the adversary acts between encode and decode).
  const PipelineAdvice base_adv = robust::guarded_encode(p, g0, pcfg);

  // One full trial: a pure function of (config, t) over shared-const state,
  // which is what makes the parallel path below byte-equivalent to serial.
  const auto run_trial = [&](int t) -> robust::RobustnessReport {
    LAD_TM_SPAN(trial_span, "campaign.trial", "campaign");
    FaultPlan plan = config.plan;
    plan.seed = hash3(config.seed, kTagTrial, static_cast<std::uint64_t>(t));
    FaultInjector inj(plan);

    std::optional<Graph> faulted;
    if (plan.any_graph_faults()) faulted = inj.apply_graph_faults(g0);
    const Graph& g = faulted.has_value() ? *faulted : g0;

    PipelineAdvice adv = base_adv;
    if (plan.any_advice_faults()) corrupt_pipeline_advice(inj, g, adv);
    robust::GuardedOutcome res = robust::guarded_decode(p, g, adv, pcfg, config.policy);
    const bool silent = silent_corruption(p.id(), g, res, pcfg);
    const auto digests = p.node_digests(g, res.output);
    robust::RobustnessReport rep = std::move(res.report);

    // Fault accounting from the injector.
    for (const auto& ev : inj.events()) {
      if (ev.layer == FaultLayer::kAdvice) ++rep.advice_faults;
      if (ev.layer == FaultLayer::kGraph) ++rep.graph_faults;
    }
    rep.silent_corruption = silent;

    // Engine layer: distributed verification echo under the fault model.
    // Nodes that crash or cannot certify their digest are detections (the
    // output itself is unchanged, so no corruption can enter here).
    if (plan.any_engine_faults()) {
      const EchoResult echo =
          run_verification_echo(g, digests, kEchoRounds, &inj.engine_faults());
      rep.engine_dropped = echo.dropped;
      rep.engine_corrupted = echo.corrupted;
      rep.engine_duplicated = echo.duplicated;
      rep.engine_delayed = echo.delayed;
      rep.engine_crashed = echo.crashed;
      rep.engine_recovered = echo.recovered;
      rep.detected_violations += static_cast<long long>(echo.unverified_nodes.size());
      merge_sorted_unique(rep.rejecting_nodes, echo.unverified_nodes);
      rep.rounds += echo.rounds;
    }

    // Blast radius: how far from a fault site did repair / flagging reach.
    std::vector<int> touched = rep.repaired_nodes;
    merge_sorted_unique(touched, rep.degraded_nodes);
    merge_sorted_unique(touched, rep.flagged_nodes);
    rep.blast_radius = robust::blast_radius(g, inj.fault_site_nodes(g), touched);

    // Every node lands in exactly one DegradeStatus bucket (§11); the echo
    // rejections above are already merged, so this is the final word.
    rep.finalize_degradation(g.n());
    return rep;
  };

  // Trials land in per-index slots and are folded in trial order, so the
  // aggregates (and reports) are byte-identical at any thread count.
  std::vector<robust::RobustnessReport> reports(static_cast<std::size_t>(config.trials));
  if (config.threads > 1 && config.trials > 1) {
    ThreadPool pool(config.threads);
    pool.for_each(config.trials,
                  [&](int t) { reports[static_cast<std::size_t>(t)] = run_trial(t); });
  } else {
    for (int t = 0; t < config.trials; ++t) {
      reports[static_cast<std::size_t>(t)] = run_trial(t);
    }
  }

  for (auto& rep : reports) {
    sum.faults_injected += rep.faults_injected();
    if (rep.degraded()) ++sum.trials_degraded;
    if (rep.output_valid) ++sum.trials_output_valid;
    if (!rep.flagged_nodes.empty()) ++sum.trials_flagged;
    if (rep.residual_violations > 0) ++sum.trials_residual;
    if (rep.silent_corruption) ++sum.silent_corruptions;
    sum.max_blast_radius = std::max(sum.max_blast_radius, rep.blast_radius);
    sum.total_detected += rep.detected_violations;
    sum.total_repaired_nodes += static_cast<long long>(rep.repaired_nodes.size());
    sum.total_flagged_nodes += static_cast<long long>(rep.flagged_nodes.size());
    sum.total_degraded_nodes += static_cast<long long>(rep.degraded_nodes.size());
    sum.total_repair_retries += rep.degradation.retries;
    sum.total_budget_exhausted += rep.degradation.budget_exhausted;
    sum.total_deadline_exhausted += rep.degradation.deadline_exhausted;
    if (!rep.degradation.accounted(sum.n)) sum.all_nodes_accounted = false;
    sum.reports.push_back(std::move(rep));
  }
  // Campaign totals, folded once from the trial-order aggregate — identical
  // at any thread count.
  LAD_TM({
    auto& m = obs::core();
    m.campaign_trials.add(sum.trials);
    m.campaign_faults_injected.add(sum.faults_injected);
  });
  return sum;
}

}  // namespace lad::faults
