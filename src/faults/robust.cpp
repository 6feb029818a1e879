#include "faults/robust.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

#include "advice/trailcode.hpp"
#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/euler.hpp"
#include "lcl/problems.hpp"
#include "lcl/solver.hpp"
#include "obs/telemetry.hpp"
#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace lad::robust {
namespace {

// Repair radii: the first attempt, the cap (a region still infeasible there
// is flagged) and the multiplier of the backoff schedule.
constexpr int kRepairRadius = 2;
constexpr int kMaxRepairRadius = 8;
constexpr int kRetryBackoff = 2;
// Marker votes sampled per long trail for the consensus direction.
constexpr int kTrailSamples = 16;

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Consensus decode of one long trail: markers are sampled along the trail
// and vote on the direction (and, when markers carry a payload, on the
// color it implies at position 0). Positions whose own nearest marker is
// missing or out-voted are the *repaired* positions — in the LOCAL model
// these are exactly the nodes whose ball was hit, so their count bounds the
// blast radius. Votes and audit read one whole-trail decode: each position's
// entry is the per-node decode of its own ±walk_limit window.
struct TrailRecovery {
  int direction = 0;       // resolved direction (+1 / -1)
  int base_bit = -1;       // majority color bit at position 0; -1 when no payload seen
  bool fallback = false;   // no marker decoded anywhere -> canonical direction
  bool disagreement = false;
  /// LOCAL rounds the recovery needs: a decoded marker lies within the walk
  /// limit, while the canonical-direction fallback walks the whole trail.
  int rounds = 0;
  std::vector<int> bad_positions;
};

// A splitting marker's payload is the color bit of its own start node, so
// markers whose starts differ in parity carry different bits on clean
// advice. Their vote is the color bit they imply at position 0.
int position0_bit(const TrailMarker& m) { return (m.payload.bit(0) ? 1 : 0) ^ (m.start & 1); }

TrailRecovery recover_trail(const Graph& g, const Trail& t, const std::vector<char>& bits,
                            int walk_limit) {
  TrailRecovery rec;
  rec.rounds = walk_limit;
  const int positions = t.positions();
  const int step = std::max(1, positions / kTrailSamples);
  const TrailMarkTable table = decode_trail_marks(t, bits, walk_limit);
  const auto marker_at = [&](int pos) -> const TrailMarker* {
    const int i = table.chosen[static_cast<std::size_t>(pos)];
    return i < 0 ? nullptr : &table.markers[static_cast<std::size_t>(i)];
  };

  int votes_fwd = 0;
  int votes_bwd = 0;
  int payload_one = 0;
  int payload_zero = 0;
  for (int pos = 0; pos < positions; pos += step) {
    const TrailMarker* m = marker_at(pos);
    if (m == nullptr) continue;
    (m->direction > 0 ? votes_fwd : votes_bwd) += 1;
    if (!m->payload.empty()) (position0_bit(*m) != 0 ? payload_one : payload_zero) += 1;
  }

  if (votes_fwd == 0 && votes_bwd == 0) {
    rec.fallback = true;
    rec.rounds = positions;
    rec.direction = canonical_trail_direction(g, t) ? +1 : -1;
    for (int pos = 0; pos < positions; ++pos) rec.bad_positions.push_back(pos);
    return rec;
  }
  rec.disagreement = votes_fwd > 0 && votes_bwd > 0;
  if (votes_fwd == votes_bwd) {
    rec.direction = canonical_trail_direction(g, t) ? +1 : -1;  // deterministic tie-break
  } else {
    rec.direction = votes_fwd > votes_bwd ? +1 : -1;
  }
  if (payload_one + payload_zero > 0) rec.base_bit = payload_one > payload_zero ? 1 : 0;

  // Per-position audit against the consensus.
  for (int pos = 0; pos < positions; ++pos) {
    const TrailMarker* m = marker_at(pos);
    const bool agrees = m != nullptr && m->direction == rec.direction &&
                        (rec.base_bit < 0 || m->payload.empty() ||
                         position0_bit(*m) == rec.base_bit);
    if (!agrees) rec.bad_positions.push_back(pos);
  }
  return rec;
}

// Normalizes an advice bit vector to length n, counting a wrong size as one
// detected violation (there is no per-node containment for it).
std::vector<char> normalize_bits(const Graph& g, const std::vector<char>& bits,
                                 RobustnessReport& report) {
  if (static_cast<int>(bits.size()) == g.n()) return bits;
  ++report.detected_violations;
  std::vector<char> b = bits;
  b.resize(static_cast<std::size_t>(g.n()), 0);
  return b;
}

// --- generic local verification --------------------------------------------

// Nodes whose radius-r constraint region is fully labeled but invalid, or
// touches an unassigned/out-of-range label (conservative: such nodes cannot
// certify their constraint, so they reject).
std::vector<int> lcl_rejecting_nodes(const Graph& g, const LclProblem& p, const Labeling& lab) {
  std::vector<int> rejecting;
  for (int v = 0; v < g.n(); ++v) {
    bool complete = true;
    const LocalBfs region(g, v, p.radius());
    for (const int u : region.nodes()) {
      if (p.num_node_labels() > 0) {
        const int l = lab.node_labels[static_cast<std::size_t>(u)];
        if (l < 1 || l > p.num_node_labels()) complete = false;
      }
      if (p.num_edge_labels() > 0) {
        for (const int e : g.incident_edges(u)) {
          const int l = lab.edge_labels[static_cast<std::size_t>(e)];
          if (l < 1 || l > p.num_edge_labels()) complete = false;
        }
      }
      if (!complete) break;
    }
    if (!complete || !p.valid_at(g, lab, v)) rejecting.push_back(v);
  }
  return rejecting;
}

// Residual violations: the rejecting nodes outside every flagged node's
// scope. lcl_rejecting_nodes treats an edge as part of v's region when
// either endpoint is within p.radius() of v, so the scope of a flagged node
// (where its cleared edges show) reaches one hop beyond the node-ball radius.
int count_residuals(const Graph& g, const LclProblem& p, const std::vector<int>& rejecting,
                    const std::vector<int>& flagged) {
  const LocalBfs scope(g, flagged, p.radius() + (p.num_edge_labels() > 0 ? 1 : 0));
  return static_cast<int>(std::count_if(rejecting.begin(), rejecting.end(),
                                        [&](int v) { return !scope.reached(v); }));
}

// Groups seed nodes whose pairwise distance is <= join into repair clusters.
std::vector<std::vector<int>> group_by_distance(const Graph& g, std::vector<int> seeds,
                                                int join) {
  sort_unique(seeds);
  const int k = static_cast<int>(seeds.size());
  NodeMap seed_ix(g);
  for (int i = 0; i < k; ++i) seed_ix.set(seeds[static_cast<std::size_t>(i)], i);
  std::vector<int> parent(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) parent[static_cast<std::size_t>(i)] = i;
  std::function<int(int)> find = [&](int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] = parent[static_cast<std::size_t>(parent[a])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  for (int i = 0; i < k; ++i) {
    // Union order decides each group's root, so the ball is walked in
    // ball_nodes order.
    for (const int u : ball_nodes(g, seeds[static_cast<std::size_t>(i)], join)) {
      const int j = seed_ix.get(u, -1);
      if (j >= 0 && find(i) != find(j)) parent[static_cast<std::size_t>(find(i))] = find(j);
    }
  }
  std::map<int, std::vector<int>> grouped;
  for (int i = 0; i < k; ++i) grouped[find(i)].push_back(seeds[static_cast<std::size_t>(i)]);
  std::vector<std::vector<int>> out;
  out.reserve(grouped.size());
  for (auto& [root, members] : grouped) {
    (void)root;
    out.push_back(std::move(members));
  }
  return out;
}

}  // namespace

int blast_radius(const Graph& g, const std::vector<int>& sites,
                 const std::vector<int>& touched) {
  if (sites.empty() || touched.empty()) return 0;
  const auto dist = bfs_distances_multi(g, sites);
  int radius = 0;
  for (const int v : touched) {
    const int d = dist[static_cast<std::size_t>(v)];
    if (d != kUnreachable) radius = std::max(radius, d);
  }
  return radius;
}

const char* to_string(DegradeStatus status) {
  switch (status) {
    case DegradeStatus::kVerified:
      return "verified";
    case DegradeStatus::kRepaired:
      return "repaired";
    case DegradeStatus::kDegraded:
      return "degraded";
    case DegradeStatus::kFlagged:
      return "flagged";
  }
  LAD_UNREACHABLE("bad DegradeStatus");
}

void RobustnessReport::finalize_degradation(int n) {
  node_status.assign(static_cast<std::size_t>(n), DegradeStatus::kVerified);
  const auto mark = [&](const std::vector<int>& nodes, DegradeStatus s) {
    for (const int v : nodes) {
      if (v >= 0 && v < n) node_status[static_cast<std::size_t>(v)] = s;
    }
  };
  // Later marks win: a rejection resolved by repair is repaired; an explicit
  // ladder downgrade or a flag overrides everything before it.
  mark(rejecting_nodes, DegradeStatus::kDegraded);
  mark(repaired_nodes, DegradeStatus::kRepaired);
  mark(degraded_nodes, DegradeStatus::kDegraded);
  mark(flagged_nodes, DegradeStatus::kFlagged);
  degradation.verified = 0;
  degradation.repaired = 0;
  degradation.degraded = 0;
  degradation.flagged = 0;
  for (const DegradeStatus s : node_status) {
    switch (s) {
      case DegradeStatus::kVerified:
        ++degradation.verified;
        break;
      case DegradeStatus::kRepaired:
        ++degradation.repaired;
        break;
      case DegradeStatus::kDegraded:
        ++degradation.degraded;
        break;
      case DegradeStatus::kFlagged:
        ++degradation.flagged;
        break;
    }
  }
}

namespace {

// Attempt radii for one region under `policy`: legacy linear escalation
// (max_retries == 0), or exponential backoff capped at kMaxRepairRadius
// with at most max_retries attempts beyond the first.
std::vector<int> repair_radius_schedule(const RepairPolicy& policy) {
  std::vector<int> rads;
  if (policy.max_retries <= 0) {
    for (int r = kRepairRadius; r <= kMaxRepairRadius; ++r) rads.push_back(r);
    return rads;
  }
  int r = kRepairRadius;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    rads.push_back(std::min(r, kMaxRepairRadius));
    if (r >= kMaxRepairRadius) break;
    r *= kRetryBackoff;
  }
  return rads;
}

// solve_lcl with an exhausted step budget treated like infeasible. On
// failure the free labels keep the values they held.
bool resolve_free_labels(const Graph& g, const LclProblem& p, Labeling& lab,
                         const std::vector<int>& free_nodes, const std::vector<int>& free_edges,
                         const std::vector<int>& check_nodes, std::int64_t budget) {
  try {
    return solve_lcl(g, p, lab, free_nodes, free_edges, check_nodes, budget);
  } catch (const ContractViolation&) {
    return false;
  }
}

}  // namespace

void repair_labeling_locally(const Graph& g, const LclProblem& p, Labeling& lab,
                             const std::vector<int>& bad_nodes, const RepairPolicy& policy,
                             RobustnessReport& report) {
  if (bad_nodes.empty()) return;
  std::vector<int> bad = bad_nodes;
  sort_unique(bad);

  // Untrusted labels are cleared up front: repair must re-derive them.
  for (const int v : bad) {
    if (p.num_node_labels() > 0) lab.node_labels[static_cast<std::size_t>(v)] = -1;
    if (p.num_edge_labels() > 0) {
      for (const int e : g.incident_edges(v)) {
        lab.edge_labels[static_cast<std::size_t>(e)] = -1;
      }
    }
  }

  const int rbar = p.radius();
  const std::vector<int> schedule = repair_radius_schedule(policy);
  long long nodes_spent = 0;   // against repair_node_budget
  long long radius_spent = 0;  // against repair_round_deadline

  // Lazy component decomposition for the advice-free fallback rung.
  Components comps;
  bool comps_built = false;
  std::vector<char> comp_resolved;

  for (const auto& group : group_by_distance(g, bad, 2 * kRepairRadius + 1)) {
    bool repaired = false;
    bool budget_hit = false;
    bool deadline_hit = false;
    bool first_attempt = true;
    RepairRegion region_out;
    for (const int rad : schedule) {
      if (policy.repair_round_deadline > 0 &&
          radius_spent + rad > policy.repair_round_deadline) {
        deadline_hit = true;
        break;
      }
      std::vector<int> region;
      {
        const LocalBfs near(g, group, rad);
        region.assign(near.nodes().begin(), near.nodes().end());
        std::sort(region.begin(), region.end());
      }
      if (policy.repair_node_budget > 0 &&
          nodes_spent + static_cast<long long>(region.size()) > policy.repair_node_budget) {
        budget_hit = true;
        break;
      }
      if (!first_attempt) ++report.degradation.retries;
      first_attempt = false;
      nodes_spent += static_cast<long long>(region.size());
      radius_spent += rad;
      NodeMap in_region(g);
      for (const int v : region) in_region.insert(v);
      // The free variables: region nodes, and edges with both ends in it.
      const auto free_edge = [&](int e) {
        return in_region.contains(g.edge_u(e)) && in_region.contains(g.edge_v(e));
      };

      std::vector<int> free_nodes;
      std::vector<int> free_edges;
      if (p.num_node_labels() > 0) free_nodes = region;
      if (p.num_edge_labels() > 0) {
        for (const int v : region) {
          for (const int e : g.incident_edges(v)) {
            if (free_edge(e)) free_edges.push_back(e);
          }
        }
        sort_unique(free_edges);
      }

      // Check nodes: every node whose constraint region meets the free set
      // AND will be fully labeled once the free set is assigned (regions
      // touching other unassigned labels cannot be certified here; the
      // caller's post-repair verification picks them up). Free labels count
      // as assigned, so whether they are cleared yet does not matter.
      std::vector<int> check_nodes;
      {
        std::vector<int> touched = free_nodes;
        for (const int e : free_edges) {
          touched.push_back(g.edge_u(e));
          touched.push_back(g.edge_v(e));
        }
        sort_unique(touched);
        const LocalBfs near(g, touched, rbar);
        std::vector<int> candidates(near.nodes().begin(), near.nodes().end());
        std::sort(candidates.begin(), candidates.end());
        for (const int v : candidates) {
          bool certifiable = true;
          const LocalBfs region_v(g, v, rbar);
          for (const int u : region_v.nodes()) {
            if (p.num_node_labels() > 0 &&
                lab.node_labels[static_cast<std::size_t>(u)] == -1 && !in_region.contains(u)) {
              certifiable = false;
            }
            if (certifiable && p.num_edge_labels() > 0) {
              for (const int e : g.incident_edges(u)) {
                if (lab.edge_labels[static_cast<std::size_t>(e)] == -1 && !free_edge(e)) {
                  certifiable = false;
                  break;
                }
              }
            }
            if (!certifiable) break;
          }
          if (certifiable) check_nodes.push_back(v);
        }
      }

      const bool solved = resolve_free_labels(g, p, lab, free_nodes, free_edges, check_nodes,
                                              policy.solver_budget);
      region_out.nodes = region;
      region_out.radius = rad;
      if (solved) {  // otherwise escalate
        repaired = true;
        break;
      }
    }
    if (deadline_hit) ++report.degradation.deadline_exhausted;
    if (budget_hit) ++report.degradation.budget_exhausted;

    // Fallback-ladder rung below local repair: re-solve the whole connected
    // component(s) containing the group advice-free. Correctness is kept,
    // locality is not — the touched component members are *degraded*.
    if (!repaired && policy.advice_free_fallback) {
      if (!comps_built) {
        comps = connected_components(g);
        comps_built = true;
        comp_resolved.assign(comps.members.size(), 0);
      }
      std::vector<int> comp_ids;
      for (const int v : group) {
        comp_ids.push_back(comps.comp_of[static_cast<std::size_t>(v)]);
      }
      sort_unique(comp_ids);
      bool all_solved = true;
      std::vector<int> members_all;
      for (const int c : comp_ids) {
        const auto& members = comps.members[static_cast<std::size_t>(c)];
        members_all.insert(members_all.end(), members.begin(), members.end());
        if (comp_resolved[static_cast<std::size_t>(c)]) continue;
        std::vector<int> free_nodes;
        std::vector<int> free_edges;
        if (p.num_node_labels() > 0) free_nodes = members;
        if (p.num_edge_labels() > 0) {
          for (const int v : members) {
            for (const int e : g.incident_edges(v)) free_edges.push_back(e);
          }
          sort_unique(free_edges);
        }
        // Every member's radius-rbar ball stays inside its component and is
        // fully labeled after the assignment, so all members are checkable.
        if (resolve_free_labels(g, p, lab, free_nodes, free_edges, members,
                                policy.solver_budget)) {
          comp_resolved[static_cast<std::size_t>(c)] = 1;
        } else {
          all_solved = false;
          break;
        }
      }
      if (all_solved) {
        sort_unique(members_all);
        region_out.degraded = true;
        region_out.nodes = members_all;
        for (const int v : members_all) report.degraded_nodes.push_back(v);
      }
    }

    region_out.repaired = repaired;
    if (repaired) {
      for (const int v : region_out.nodes) report.repaired_nodes.push_back(v);
    } else if (!region_out.degraded) {
      for (const int v : group) report.flagged_nodes.push_back(v);
    }
    report.regions.push_back(std::move(region_out));
  }
  sort_unique(report.repaired_nodes);
  sort_unique(report.degraded_nodes);
  sort_unique(report.flagged_nodes);
}

std::string RobustnessReport::to_string() const {
  std::ostringstream os;
  os << "RobustnessReport{decoder=" << decoder << "\n"
     << "  faults: advice=" << advice_faults << " graph=" << graph_faults
     << " engine{dropped=" << engine_dropped << " corrupted=" << engine_corrupted
     << " duplicated=" << engine_duplicated << " delayed=" << engine_delayed
     << " crashed=" << engine_crashed << " recovered=" << engine_recovered
     << "} total=" << faults_injected() << "\n"
     << "  detection: violations=" << detected_violations
     << " rejecting=" << rejecting_nodes.size() << "\n"
     << "  repair: repaired=" << repaired_nodes.size() << " degraded=" << degraded_nodes.size()
     << " flagged=" << flagged_nodes.size() << " regions=" << regions.size()
     << " retries=" << degradation.retries
     << " budget_exhausted=" << degradation.budget_exhausted
     << " deadline_exhausted=" << degradation.deadline_exhausted << "\n"
     << "  outcome: valid=" << (output_valid ? 1 : 0)
     << " residual=" << residual_violations << " blast=" << blast_radius
     << " silent=" << (silent_corruption ? 1 : 0) << " rounds=" << rounds << "}";
  return os.str();
}

namespace {

// --- orientation ------------------------------------------------------------

// §5 orientation decoder hardened by marker consensus: every long trail is
// decoded at sampled positions, the majority direction wins, and positions
// whose nearest marker is missing or disagrees are repaired from the
// consensus; a trail with no decodable marker at all falls back to the
// advice-free canonical direction (still a valid orientation).
GuardedOutcome guarded_decode_orientation(const Graph& g, const std::vector<char>& bits) {
  GuardedOutcome out;
  Orientation& orientation = out.output.orientation;
  const auto b = normalize_bits(g, bits, out.report);
  const TrailSchema s = trail_schema(g, {}, 0);

  orientation.assign(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);
  int rounds = 0;
  for (std::size_t i = 0; i < s.trails.size(); ++i) {
    const Trail& t = s.trails[i];
    if (!s.marked[i]) {
      orient_trail(g, t, canonical_trail_direction(g, t) ? +1 : -1, orientation);
      rounds = std::max(rounds, t.length());
      continue;
    }
    const auto rec = recover_trail(g, t, b, s.walk_limit);
    if (rec.fallback || rec.disagreement) ++out.report.detected_violations;
    orient_trail(g, t, rec.direction, orientation);
    for (const int pos : rec.bad_positions) out.report.repaired_nodes.push_back(t.node_at(pos));
    rounds = std::max(rounds, rec.rounds);
  }
  sort_unique(out.report.repaired_nodes);

  for (int v = 0; v < g.n(); ++v) {
    if (std::abs(out_degree(g, orientation, v) - in_degree(g, orientation, v)) > 1) {
      out.report.rejecting_nodes.push_back(v);
    }
  }
  out.report.residual_violations = static_cast<int>(out.report.rejecting_nodes.size());
  out.report.output_valid = is_balanced_orientation(g, orientation, 1);
  out.report.rounds = rounds;
  return out;
}

// --- splitting --------------------------------------------------------------

/// Degree splitting as an LCL for local repair: incident red/blue edge
/// counts equal at every node (degrees must be even for feasibility).
class SplittingLcl final : public LclProblem {
 public:
  std::string name() const override { return "splitting"; }
  int radius() const override { return 1; }
  int num_node_labels() const override { return 0; }
  int num_edge_labels() const override { return 2; }
  bool valid_at(const Graph& g, const Labeling& lab, int v) const override {
    int red = 0;
    int blue = 0;
    for (const int e : g.incident_edges(v)) {
      (lab.edge_labels[static_cast<std::size_t>(e)] == 1 ? red : blue) += 1;
    }
    return red == blue;
  }
};

// §5-ext splitting decoder hardened by marker consensus (direction and the
// color implied at position 0 both voted), then decode_splitting's parity
// propagation, per-node balance verification and local edge-color repair
// with the exact solver.
GuardedOutcome guarded_decode_splitting(const Graph& g, const std::vector<char>& bits,
                                        const RepairPolicy& policy) {
  GuardedOutcome out;
  std::vector<int>& edge_color = out.output.edge_color;
  std::vector<int>& node_color = out.output.node_color;
  const auto b = normalize_bits(g, bits, out.report);
  const TrailSchema s = trail_schema(g, {}, 1);

  edge_color.assign(static_cast<std::size_t>(g.m()), 0);
  node_color.assign(static_cast<std::size_t>(g.n()), 0);
  Orientation orient(static_cast<std::size_t>(g.m()), EdgeDir::kUnset);

  int rounds = 0;
  for (std::size_t i = 0; i < s.trails.size(); ++i) {
    const Trail& t = s.trails[i];
    const int L = t.length();
    if (!s.marked[i]) {
      orient_trail(g, t, canonical_trail_direction(g, t) ? +1 : -1, orient);
      rounds = std::max(rounds, L);
      continue;
    }
    const auto rec = recover_trail(g, t, b, s.walk_limit);
    if (rec.fallback || rec.disagreement) ++out.report.detected_violations;
    orient_trail(g, t, rec.direction, orient);
    for (const int pos : rec.bad_positions) out.report.repaired_nodes.push_back(t.node_at(pos));
    if (!rec.fallback && rec.base_bit >= 0) {
      for (int pos = 0; pos < L; ++pos) {
        node_color[static_cast<std::size_t>(t.node_at(pos))] = 1 + (rec.base_bit ^ (pos % 2));
      }
    } else if (!rec.fallback) {
      // Direction recovered but no trustworthy base color: the trail's
      // nodes take colors from the propagation phase below.
      ++out.report.detected_violations;
    }
    rounds = std::max(rounds, rec.rounds);
  }

  // A marker-less component too deep to gather is a detection here, where
  // the strict decoder rejects the advice.
  std::vector<std::vector<int>> too_deep;
  rounds = std::max(rounds, propagate_splitting_colors(g, node_color, s.walk_limit, too_deep));
  for (const auto& members : too_deep) {
    ++out.report.detected_violations;
    for (const int v : members) out.report.repaired_nodes.push_back(v);
  }

  for (int e = 0; e < g.m(); ++e) {
    const int tail =
        orient[static_cast<std::size_t>(e)] == EdgeDir::kForward ? g.edge_u(e) : g.edge_v(e);
    edge_color[static_cast<std::size_t>(e)] = node_color[static_cast<std::size_t>(tail)];
  }

  // Independent per-node balance verification + local edge-color repair.
  const SplittingLcl problem;
  Labeling lab = Labeling::empty(g);
  lab.edge_labels = edge_color;
  auto bad = lcl_rejecting_nodes(g, problem, lab);
  out.report.rejecting_nodes = bad;
  if (!bad.empty()) {
    repair_labeling_locally(g, problem, lab, bad, policy, out.report);
    edge_color = lab.edge_labels;
    for (int e = 0; e < g.m(); ++e) {
      if (edge_color[static_cast<std::size_t>(e)] == -1) {
        edge_color[static_cast<std::size_t>(e)] = 0;  // flagged scope: explicit
      }
    }
  }

  // Residuals: rejecting nodes outside the flagged scope.
  lab.edge_labels = edge_color;
  out.report.residual_violations += count_residuals(
      g, problem, lcl_rejecting_nodes(g, problem, lab), out.report.flagged_nodes);
  out.report.output_valid = out.report.residual_violations == 0 &&
                            out.report.flagged_nodes.empty() && is_splitting(g, edge_color);
  out.report.rounds = rounds;
  return out;
}

// --- coloring (shared tail for §6 / §7) -------------------------------------

// Verification + local recoloring repair + residual accounting shared by
// the two coloring decoders. out.output.node_color uses 0 for unassigned.
void finish_guarded_coloring(const Graph& g, int num_colors, const std::vector<int>& failed,
                             const RepairPolicy& policy, GuardedOutcome& out) {
  std::vector<int>& coloring = out.output.node_color;
  const VertexColoringLcl problem(num_colors);
  Labeling lab = Labeling::empty(g);
  for (int v = 0; v < g.n(); ++v) {
    const int c = coloring[static_cast<std::size_t>(v)];
    lab.node_labels[static_cast<std::size_t>(v)] = (c >= 1 && c <= num_colors) ? c : -1;
  }
  auto bad = lcl_rejecting_nodes(g, problem, lab);
  out.report.rejecting_nodes = bad;
  for (const int v : failed) bad.push_back(v);
  sort_unique(bad);
  if (!bad.empty()) repair_labeling_locally(g, problem, lab, bad, policy, out.report);

  for (int v = 0; v < g.n(); ++v) {
    const int l = lab.node_labels[static_cast<std::size_t>(v)];
    coloring[static_cast<std::size_t>(v)] = l == -1 ? 0 : l;
  }

  out.report.residual_violations += count_residuals(
      g, problem, lcl_rejecting_nodes(g, problem, lab), out.report.flagged_nodes);
  out.report.output_valid = out.report.residual_violations == 0 &&
                            out.report.flagged_nodes.empty() &&
                            is_proper_coloring(g, coloring, num_colors);
}

// §7 three-coloring decoder via the tolerant decode, proper-coloring
// verification, and local recoloring repair.
GuardedOutcome guarded_decode_three_coloring(const Graph& g, const std::vector<char>& bits,
                                             const RepairPolicy& policy) {
  GuardedOutcome out;
  const auto b = normalize_bits(g, bits, out.report);

  std::vector<char> failed_mask;
  std::vector<int> failed;
  try {
    auto res = decode_three_coloring_tolerant(g, b, failed_mask);
    out.output.node_color = std::move(res.coloring);
    out.report.rounds = res.rounds;
  } catch (const ContractViolation&) {
    // No per-node containment possible: advice-free from here.
    ++out.report.detected_violations;
    out.output.node_color.assign(static_cast<std::size_t>(g.n()), 0);
    failed_mask.assign(static_cast<std::size_t>(g.n()), 1);
  }
  for (int v = 0; v < g.n(); ++v) {
    if (failed_mask[static_cast<std::size_t>(v)] != 0) failed.push_back(v);
  }
  out.report.detected_violations += static_cast<long long>(failed.size());

  finish_guarded_coloring(g, 3, failed, policy, out);
  return out;
}

// §6 Δ-coloring decoder: the VarAdvice is sanitized entry-by-entry (every
// malformed schema entry is dropped and counted as a detection) before the
// decoder — whose own repair machinery handles the resulting uncolored
// nodes — runs; a final proper-coloring verification and local recoloring
// pass covers whatever remains.
GuardedOutcome guarded_decode_delta_coloring(const Graph& g, const VarAdvice& advice,
                                             const RepairPolicy& policy) {
  GuardedOutcome out;
  const int delta = std::max(1, g.max_degree());

  // Staged degradation: full advice, then entry-sanitized advice, then
  // cluster entries only, then no advice at all. Every demotion is a
  // detected violation; the §6 decoder's own repair machinery handles the
  // uncolored nodes each stage leaves behind.
  const auto sanitize = [&](bool keep_repair_entries, bool count_drops) {
    VarAdvice clean;
    for (const auto& [node, entries] : advice) {
      if (node < 0 || node >= g.n()) {
        if (count_drops) ++out.report.detected_violations;
        continue;
      }
      std::vector<SchemaEntry> kept;
      for (const auto& entry : entries) {
        bool ok = g.find_index(entry.anchor_id).has_value();
        if (ok && entry.schema_id == 0) {
          try {
            int pos = 0;
            const std::uint64_t color = entry.payload.read_gamma(pos);
            ok = color >= 1 && color <= static_cast<std::uint64_t>(g.n()) + 1;
          } catch (const ContractViolation&) {
            ok = false;
          }
        }
        if (ok && entry.schema_id == 1 && !keep_repair_entries) ok = false;
        if (ok && entry.schema_id == 1 && entry.payload.empty()) ok = false;
        if (ok) {
          kept.push_back(entry);
        } else if (count_drops) {
          ++out.report.detected_violations;
        }
      }
      if (!kept.empty()) clean[node] = std::move(kept);
    }
    return clean;
  };

  std::vector<int> failed;
  bool decoded = false;
  for (int stage = 0; stage < 3 && !decoded; ++stage) {
    VarAdvice staged;
    const VarAdvice* input = &advice;
    if (stage == 1) {
      staged = sanitize(true, true);  // drops counted once, at first demotion
      input = &staged;
    } else if (stage == 2) {
      staged = sanitize(false, false);
      input = &staged;
    }
    try {
      auto res = decode_delta_coloring(g, *input);
      out.output.node_color = std::move(res.coloring);
      out.report.rounds = res.rounds;
      decoded = true;
    } catch (const ContractViolation&) {
      ++out.report.detected_violations;
    }
  }
  if (!decoded) {
    // Advice-free: everything is a repair region.
    out.output.node_color.assign(static_cast<std::size_t>(g.n()), 0);
    for (int v = 0; v < g.n(); ++v) failed.push_back(v);
  }

  finish_guarded_coloring(g, delta, failed, policy, out);
  return out;
}

// --- subexponential-growth LCL ---------------------------------------------

// §4 subexponential-growth LCL decoder via the tolerant decode, per-node
// valid_at verification, and local region repair.
GuardedOutcome guarded_decode_subexp_lcl(const Graph& g, const LclProblem& p,
                                         const std::vector<char>& bits,
                                         const SubexpLclParams& params,
                                         const RepairPolicy& policy) {
  GuardedOutcome out;
  Labeling& labeling = out.output.labeling;
  const auto b = normalize_bits(g, bits, out.report);

  std::vector<char> failed_mask;
  try {
    auto res = decode_subexp_lcl_tolerant(g, p, b, failed_mask, params);
    labeling = std::move(res.labeling);
    out.report.rounds = res.rounds;
  } catch (const ContractViolation&) {
    ++out.report.detected_violations;
    labeling = Labeling::empty(g);
    failed_mask.assign(static_cast<std::size_t>(g.n()), 1);
  }
  std::vector<int> failed;
  for (int v = 0; v < g.n(); ++v) {
    if (failed_mask[static_cast<std::size_t>(v)] != 0) failed.push_back(v);
  }
  out.report.detected_violations += static_cast<long long>(failed.size());

  auto bad = lcl_rejecting_nodes(g, p, labeling);
  out.report.rejecting_nodes = bad;
  for (const int v : failed) bad.push_back(v);
  sort_unique(bad);
  if (!bad.empty()) repair_labeling_locally(g, p, labeling, bad, policy, out.report);

  out.report.residual_violations += count_residuals(
      g, p, lcl_rejecting_nodes(g, p, labeling), out.report.flagged_nodes);
  out.report.output_valid = out.report.residual_violations == 0 &&
                            out.report.flagged_nodes.empty() &&
                            is_valid_labeling(g, p, labeling);
  return out;
}

// --- edge-set decompression -------------------------------------------------

// Bits the guarded compressor appends to every §1.5 label.
constexpr int kDecompressGuardBits = 16;

// 16-bit integrity guard over (node ID, orientation bit, out-neighbor IDs,
// membership bits). Covering the out-neighbor IDs ties the label to the
// orientation it was encoded under: a trail whose recovered direction
// differs from encode time changes every affected node's out-set and is
// caught here instead of silently re-targeting memberships.
std::uint16_t label_guard(const Graph& g, int v, bool orientation_bit,
                          const std::vector<int>& out_edges, const BitString& memberships) {
  std::uint64_t h =
      hash3(0x9uLL + 0xDECuLL, static_cast<std::uint64_t>(g.id(v)), orientation_bit ? 1 : 0);
  for (const int e : out_edges) {
    h = hash2(h, static_cast<std::uint64_t>(g.id(g.other_endpoint(e, v))));
  }
  for (int i = 0; i < memberships.size(); ++i) {
    h = hash2(h, memberships.bit(i) ? 2 : 1);
  }
  return static_cast<std::uint16_t>(h & 0xffffu);
}

// v's outgoing edges under o, in the order of its membership bits.
void outgoing_edges(const Graph& g, const Orientation& o, int v, std::vector<int>& out) {
  out.clear();
  for (const int e : g.incident_edges(v)) {
    if (is_outgoing(g, o, e, v)) out.push_back(e);
  }
}

// The §1.5 compressor plus one label_guard per label.
Advice guarded_compress_edge_set(const Graph& g, const std::vector<char>& in_x) {
  CompressedEdgeSet c = compress_edge_set(g, in_x);
  std::vector<int> out;
  for (int v = 0; v < g.n(); ++v) {
    BitString& label = c.labels[static_cast<std::size_t>(v)];
    outgoing_edges(g, c.orientation, v, out);
    BitString memberships;
    for (int i = 0; i < static_cast<int>(out.size()); ++i) memberships.append(label.bit(1 + i));
    const std::uint16_t guard = label_guard(g, v, label.bit(0), out, memberships);
    label.append(BitString::fixed_width(guard, kDecompressGuardBits));
  }
  return std::move(c.labels);
}

// §1.5 decompressor: the orientation bits go through the guarded orientation
// decoder, then every label's guard is verified. Membership bits cannot be
// repaired, only surfaced, so a label that fails its guard is flagged and
// its edges reported unknown.
GuardedOutcome guarded_decompress_edge_set(const Graph& g, const Advice& labels) {
  GuardedOutcome out;
  std::vector<char>& in_x = out.output.edge_in_x;
  std::vector<char>& edge_known = out.output.edge_known;
  in_x.assign(static_cast<std::size_t>(g.m()), 0);
  edge_known.assign(static_cast<std::size_t>(g.m()), 0);

  if (static_cast<int>(labels.size()) != g.n()) {
    // Labels cannot be aligned to nodes at all: everything is flagged.
    ++out.report.detected_violations;
    for (int v = 0; v < g.n(); ++v) out.report.flagged_nodes.push_back(v);
    out.report.output_valid = false;
    out.report.residual_violations = g.n();
    return out;
  }

  std::vector<char> advice_bits(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    const BitString& label = labels[static_cast<std::size_t>(v)];
    if (label.empty()) {
      ++out.report.detected_violations;
      out.report.rejecting_nodes.push_back(v);
      continue;
    }
    advice_bits[static_cast<std::size_t>(v)] = label.bit(0) ? 1 : 0;
  }

  const auto oriented = guarded_decode_orientation(g, advice_bits);
  out.report.detected_violations += oriented.report.detected_violations;
  for (const int v : oriented.report.repaired_nodes) out.report.repaired_nodes.push_back(v);

  std::vector<int> outgoing;
  for (int v = 0; v < g.n(); ++v) {
    const BitString& label = labels[static_cast<std::size_t>(v)];
    outgoing_edges(g, oriented.output.orientation, v, outgoing);
    const int expected = 1 + static_cast<int>(outgoing.size()) + kDecompressGuardBits;
    bool ok = label.size() == expected;
    BitString memberships;
    if (ok) {
      for (int i = 0; i < static_cast<int>(outgoing.size()); ++i) {
        memberships.append(label.bit(1 + i));
      }
      int pos = 1 + static_cast<int>(outgoing.size());
      const std::uint64_t stored = label.read_fixed(pos, kDecompressGuardBits);
      ok = stored == label_guard(g, v, label.bit(0), outgoing, memberships);
    }
    if (!ok) {
      // Membership bits carry no redundancy: an unverifiable label cannot
      // be repaired, only flagged — guessing would be silent corruption.
      ++out.report.detected_violations;
      out.report.rejecting_nodes.push_back(v);
      out.report.flagged_nodes.push_back(v);
      continue;
    }
    for (int i = 0; i < static_cast<int>(outgoing.size()); ++i) {
      in_x[static_cast<std::size_t>(outgoing[i])] = memberships.bit(i) ? 1 : 0;
      edge_known[static_cast<std::size_t>(outgoing[i])] = 1;
    }
  }
  sort_unique(out.report.rejecting_nodes);
  sort_unique(out.report.repaired_nodes);
  sort_unique(out.report.flagged_nodes);

  int unknown = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (!edge_known[static_cast<std::size_t>(e)]) ++unknown;
  }
  out.report.residual_violations = 0;  // unknown edges are flagged, not residual
  out.report.output_valid = unknown == 0 && out.report.flagged_nodes.empty();
  out.report.rounds = oriented.report.rounds + 1;
  return out;
}

}  // namespace

// --- the registry entry points ----------------------------------------------

PipelineAdvice guarded_encode(const Pipeline& p, const Graph& g, const PipelineConfig& cfg) {
  if (p.id() != PipelineId::kDecompress) return p.encode(g, cfg);
  PipelineAdvice adv;
  adv.carrier = AdviceCarrier::kNodeLabels;
  adv.labels =
      guarded_compress_edge_set(g, hashed_edge_membership(g, cfg.seed, kDecompressDensity));
  return adv;
}

// The one telemetry point for all six guarded decoders. The detection and
// repair counters are folded from the finished report, so the accounting can
// never influence the decode it describes.
GuardedOutcome guarded_decode(const Pipeline& p, const Graph& g, const PipelineAdvice& adv,
                              const PipelineConfig& cfg, const RepairPolicy& policy) {
  LAD_TM_SPAN(span, std::string("guarded.decode/") + p.name(), "guarded");
  GuardedOutcome out;
  switch (p.id()) {
    case PipelineId::kOrientation:
      out = guarded_decode_orientation(g, adv.bits);
      break;
    case PipelineId::kSplitting:
      out = guarded_decode_splitting(g, adv.bits, policy);
      break;
    case PipelineId::kThreeColoring:
      out = guarded_decode_three_coloring(g, adv.bits, policy);
      break;
    case PipelineId::kDeltaColoring:
      out = guarded_decode_delta_coloring(g, adv.var, policy);
      break;
    case PipelineId::kSubexpLcl:
      out = guarded_decode_subexp_lcl(g, subexp_demo_lcl(), adv.bits, cfg.subexp, policy);
      break;
    case PipelineId::kDecompress:
      out = guarded_decompress_edge_set(g, adv.labels);
      break;
  }
  out.report.decoder = p.name();
  out.output.rounds = out.report.rounds;
  LAD_TM({
    auto& m = obs::core();
    const auto& r = out.report;
    m.guard_detections.add(r.detected_violations);
    m.repaired_nodes.add(static_cast<long long>(r.repaired_nodes.size()));
    m.degraded_nodes.add(static_cast<long long>(r.degraded_nodes.size()));
    m.flagged_nodes.add(static_cast<long long>(r.flagged_nodes.size()));
    m.repair_regions.add(static_cast<long long>(r.regions.size()));
    m.repair_retries.add(r.degradation.retries);
    m.repair_budget_exhausted.add(r.degradation.budget_exhausted);
    m.repair_deadline_exhausted.add(r.degradation.deadline_exhausted);
    for (const auto& region : r.regions) {
      m.repair_region_radius.observe(region.radius);
      if (region.radius > 1) m.repair_escalations.add(1);
    }
  });
  return out;
}

}  // namespace lad::robust
