#include "faults/chaos.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "util/contracts.hpp"

namespace lad::faults {
namespace {

// Cell seeds derive from (config seed, cell index) in their own hash domain
// so the matrix cannot collide with the per-trial stream (kTagTrial).
constexpr std::uint64_t kTagChaosCell = 0xC405;

double scaled(double p, int rate_percent) {
  const double s = p * static_cast<double>(rate_percent) / 100.0;
  return std::clamp(s, 0.0, 0.9);
}

}  // namespace

std::vector<std::string> chaos_model_names() { return {"mixed", "adversarial", "churn"}; }

bool chaos_fault_model(const std::string& name, FaultPlan& out) {
  if (name == "mixed") {
    out = default_mixed_plan();
    return true;
  }
  if (name == "adversarial") {
    // The worst-case-flavored adversary: advice corruption concentrated on
    // high-degree victims with byzantine-heavy kinds, plus a regional
    // (burst) outage instead of scattered edge deletions.
    FaultPlan plan;
    plan.advice.node_fraction = 0.03;
    plan.advice.kinds = {AdviceFaultKind::kByzantine, AdviceFaultKind::kTruncate,
                         AdviceFaultKind::kBitFlip};
    plan.advice.targeting = AdviceTargeting::kHighDegree;
    plan.graph.burst_count = 2;
    plan.graph.burst_radius = 1;
    plan.engine.message_drop_prob = 0.005;
    out = plan;
    return true;
  }
  if (name == "churn") {
    // Crash-recovery churn: nodes go down and rejoin with blank state while
    // the network duplicates and delays messages.
    FaultPlan plan;
    plan.advice.node_fraction = 0.01;
    plan.advice.kinds = {AdviceFaultKind::kBitFlip};
    plan.engine.crash_fraction = 0.05;
    plan.engine.crash_round_window = 3;
    plan.engine.crash_recovery_rounds = 2;
    plan.engine.message_duplicate_prob = 0.02;
    plan.engine.message_delay_prob = 0.02;
    plan.engine.max_delay_rounds = 2;
    plan.engine.message_drop_prob = 0.005;
    out = plan;
    return true;
  }
  return false;
}

std::vector<std::string> chaos_policy_names() { return {"strict", "backoff", "budgeted"}; }

bool chaos_repair_policy(const std::string& name, robust::RepairPolicy& out) {
  if (name == "strict") {
    out = robust::RepairPolicy{};  // legacy: unbounded escalation, then flag
    return true;
  }
  if (name == "backoff") {
    robust::RepairPolicy p;
    p.max_retries = 3;
    p.advice_free_fallback = true;
    out = p;
    return true;
  }
  if (name == "budgeted") {
    robust::RepairPolicy p;
    p.max_retries = 2;
    p.repair_node_budget = 64;
    p.repair_round_deadline = 24;
    p.advice_free_fallback = true;
    out = p;
    return true;
  }
  return false;
}

FaultPlan scale_plan(FaultPlan plan, int rate_percent) {
  if (rate_percent == 100) return plan;
  plan.advice.node_fraction = scaled(plan.advice.node_fraction, rate_percent);
  plan.engine.message_drop_prob = scaled(plan.engine.message_drop_prob, rate_percent);
  plan.engine.message_corrupt_prob = scaled(plan.engine.message_corrupt_prob, rate_percent);
  plan.engine.crash_fraction = scaled(plan.engine.crash_fraction, rate_percent);
  plan.engine.message_duplicate_prob =
      scaled(plan.engine.message_duplicate_prob, rate_percent);
  plan.engine.message_delay_prob = scaled(plan.engine.message_delay_prob, rate_percent);
  plan.graph.edge_delete_fraction = scaled(plan.graph.edge_delete_fraction, rate_percent);
  return plan;
}

bool ChaosReport::pass() const {
  for (const ChaosCell& c : cells) {
    if (!c.ok()) return false;
  }
  return true;
}

ChaosReport run_chaos_campaign(const ChaosConfig& config) {
  ChaosConfig cfg = config;
  if (cfg.pipelines.empty()) {
    cfg.pipelines = {PipelineId::kOrientation, PipelineId::kThreeColoring,
                     PipelineId::kSubexpLcl};
  }
  if (cfg.families.empty()) {
    cfg.families = {GraphFamily::kCycle, GraphFamily::kGrid, GraphFamily::kTorus};
  }
  if (cfg.models.empty()) cfg.models = chaos_model_names();
  if (cfg.rate_percents.empty()) cfg.rate_percents = {100};
  if (cfg.policies.empty()) cfg.policies = chaos_policy_names();

  ChaosReport report;
  report.n = cfg.n;
  report.trials = cfg.trials;
  report.seed = cfg.seed;

  int cell_index = 0;
  for (const PipelineId decoder : cfg.pipelines) {
    for (const GraphFamily family : cfg.families) {
      for (const std::string& model : cfg.models) {
        for (const int rate : cfg.rate_percents) {
          for (const std::string& policy_name : cfg.policies) {
            LAD_TM_SPAN(span, "chaos.cell", "chaos");
            FaultPlan plan;
            LAD_CHECK_MSG(chaos_fault_model(model, plan),
                          "chaos: unknown fault model '" << model << "'");
            robust::RepairPolicy policy;
            LAD_CHECK_MSG(chaos_repair_policy(policy_name, policy),
                          "chaos: unknown repair policy '" << policy_name << "'");

            CampaignConfig cc;
            cc.decoder = decoder;
            cc.family = family;
            cc.n = cfg.n;
            cc.trials = cfg.trials;
            cc.seed = hash3(cfg.seed, kTagChaosCell, static_cast<std::uint64_t>(cell_index));
            cc.plan = scale_plan(plan, rate);
            cc.policy = policy;
            cc.threads = cfg.threads;

            ChaosCell cell;
            cell.decoder = decoder;
            cell.model = model;
            cell.rate_percent = rate;
            cell.policy = policy_name;
            cell.summary = run_fault_campaign(cc);
            cell.family = cell.summary.family;  // splitting may substitute
            for (const auto& rep : cell.summary.reports) {
              cell.verified += rep.degradation.verified;
              cell.repaired += rep.degradation.repaired;
              cell.degraded += rep.degradation.degraded;
              cell.flagged += rep.degradation.flagged;
            }
            // Post-mortem (DESIGN.md §13.3): a failed cell dumps the flight
            // recorder's recent round samples to stderr before the bulky
            // per-trial reports are dropped, so the round-by-round lead-up
            // (message volumes, fault/repair bursts) survives the failure.
            if (!cell.ok()) {
              std::ostringstream why;
              why << "chaos cell failed: " << pipeline(cell.decoder).name() << "/"
                  << lad::faults::to_string(cell.family) << "/" << cell.model << "/rate="
                  << cell.rate_percent << "/" << cell.policy;
              LAD_TM(obs::FlightRecorder::instance().dump(std::cerr, why.str()));
            }
            // The per-trial reports are bulky and already folded into the
            // cell row; drop them so big matrices stay small in memory.
            cell.summary.reports.clear();
            report.cells.push_back(std::move(cell));
            LAD_TM(obs::core().chaos_cells.add(1));
            ++cell_index;
          }
        }
      }
    }
  }
  return report;
}

std::string ChaosReport::to_markdown() const {
  std::ostringstream os;
  os << "# Robustness chaos matrix\n\n"
     << "Generated by `lad chaos` — " << cells.size() << " cells, n=" << n
     << ", trials=" << trials << " per cell, seed=" << seed << ".\n\n"
     << "Layer guarantee per cell: **silent=0** (detected failure or valid\n"
        "output, never a silently wrong answer) and **accounted=yes** (every\n"
        "node lands in exactly one DegradeStatus bucket: verified / repaired\n"
        "/ degraded / flagged). Δ-coloring campaigns raise the repair-radius\n"
        "cap to 20: recoloring a parity defect on a cycle is a *global*\n"
        "constraint, the documented exception to constant-radius repair\n"
        "(DESIGN.md §11).\n\n"
     << "Overall: " << (pass() ? "**PASS**" : "**FAIL**") << "\n\n"
     << "| pipeline | family | model | rate% | policy | faults | valid | silent "
        "| accounted | verified | repaired | degraded | flagged | retries "
        "| budget_x | deadline_x | blast |\n"
     << "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const ChaosCell& c : cells) {
    os << "| " << pipeline(c.decoder).name() << " | "
       << lad::faults::to_string(c.family) << " | " << c.model << " | " << c.rate_percent
       << " | " << c.policy << " | " << c.summary.faults_injected << " | "
       << c.summary.trials_output_valid << "/" << c.summary.trials << " | "
       << c.summary.silent_corruptions << " | "
       << (c.summary.all_nodes_accounted ? "yes" : "NO") << " | " << c.verified << " | "
       << c.repaired << " | " << c.degraded << " | " << c.flagged << " | "
       << c.summary.total_repair_retries << " | " << c.summary.total_budget_exhausted
       << " | " << c.summary.total_deadline_exhausted << " | "
       << c.summary.max_blast_radius << " |\n";
  }
  return os.str();
}

std::string ChaosReport::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"n\": " << n << ",\n"
     << "  \"trials\": " << trials << ",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"pass\": " << (pass() ? "true" : "false") << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ChaosCell& c = cells[i];
    os << "    {\n"
       << "      \"pipeline\": \"" << pipeline(c.decoder).name() << "\",\n"
       << "      \"family\": \"" << lad::faults::to_string(c.family) << "\",\n"
       << "      \"model\": \"" << c.model << "\",\n"
       << "      \"rate_percent\": " << c.rate_percent << ",\n"
       << "      \"policy\": \"" << c.policy << "\",\n"
       << "      \"faults_injected\": " << c.summary.faults_injected << ",\n"
       << "      \"trials_output_valid\": " << c.summary.trials_output_valid << ",\n"
       << "      \"silent_corruptions\": " << c.summary.silent_corruptions << ",\n"
       << "      \"all_nodes_accounted\": "
       << (c.summary.all_nodes_accounted ? "true" : "false") << ",\n"
       << "      \"verified\": " << c.verified << ",\n"
       << "      \"repaired\": " << c.repaired << ",\n"
       << "      \"degraded\": " << c.degraded << ",\n"
       << "      \"flagged\": " << c.flagged << ",\n"
       << "      \"repair_retries\": " << c.summary.total_repair_retries << ",\n"
       << "      \"budget_exhausted\": " << c.summary.total_budget_exhausted << ",\n"
       << "      \"deadline_exhausted\": " << c.summary.total_deadline_exhausted << ",\n"
       << "      \"max_blast_radius\": " << c.summary.max_blast_radius << "\n"
       << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace lad::faults
