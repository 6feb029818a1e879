#include "local/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "graph/distance.hpp"

namespace lad {
namespace {

const std::string& advice_at(const DecodedInstance& inst, int v) {
  static const std::string kEmpty;
  if (inst.advice.empty()) return kEmpty;
  return inst.advice[static_cast<std::size_t>(v)];
}

int radius_at(const DecodedInstance& inst, int v) {
  if (!inst.rounds_per_node.empty()) {
    const int r = inst.rounds_per_node[static_cast<std::size_t>(v)];
    return r >= 0 ? r : inst.rounds;
  }
  return inst.rounds;
}

// Sorted (min, max) index pairs of the edges induced on `nodes`.
std::vector<std::pair<int, int>> induced_edges(const Graph& g, const std::vector<int>& nodes,
                                               const std::vector<char>& in_ball) {
  std::vector<std::pair<int, int>> edges;
  for (const int u : nodes) {
    for (const int w : g.neighbors(u)) {
      if (u < w && in_ball[static_cast<std::size_t>(w)]) edges.emplace_back(u, w);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Nearest node (by distance from v in `base.g`) at which the two instances
// differ in ID, advice, or incident edges. Returns {-1, -1} if none.
std::pair<int, int> nearest_difference(const DecodedInstance& base, const DecodedInstance& alt,
                                       int v) {
  const Graph& g = *base.g;
  const Graph& h = *alt.g;
  const auto dist = bfs_distances(g, v);
  int best = -1, best_d = -1;
  for (int u = 0; u < g.n(); ++u) {
    bool differs = g.id(u) != h.id(u) || advice_at(base, u) != advice_at(alt, u);
    if (!differs) {
      const auto nb_g = g.neighbors(u);
      const auto nb_h = h.neighbors(u);
      differs = !std::equal(nb_g.begin(), nb_g.end(), nb_h.begin(), nb_h.end());
    }
    if (!differs) continue;
    const int d = dist[static_cast<std::size_t>(u)];
    if (d == kUnreachable) continue;
    if (best < 0 || d < best_d) {
      best = u;
      best_d = d;
    }
  }
  return {best, best_d};
}

LocalityViolation make_violation(const DecodedInstance& base, const DecodedInstance& alt, int v,
                                 int radius, const std::string& what) {
  LocalityViolation viol;
  viol.node = v;
  viol.node_id = base.g->id(v);
  viol.round = radius;
  const auto [origin, origin_d] = nearest_difference(base, alt, v);
  viol.origin = origin;
  viol.origin_id = origin >= 0 ? base.g->id(origin) : 0;
  viol.origin_distance = origin_d;
  std::ostringstream os;
  os << "node " << viol.node_id << ": " << what << " despite identical radius-" << radius
     << " view";
  if (origin >= 0) {
    os << "; nearest instance difference at node " << viol.origin_id << ", distance " << origin_d;
  }
  viol.detail = os.str();
  return viol;
}

}  // namespace

bool views_identical(const DecodedInstance& a, const DecodedInstance& b, int v, int radius) {
  const Graph& g = *a.g;
  const Graph& h = *b.g;
  LAD_CHECK(g.n() == h.n());
  LAD_CHECK(v >= 0 && v < g.n() && radius >= 0);

  auto ball_a = ball_nodes(g, v, radius);
  auto ball_b = ball_nodes(h, v, radius);
  std::sort(ball_a.begin(), ball_a.end());
  std::sort(ball_b.begin(), ball_b.end());
  if (ball_a != ball_b) return false;

  for (const int u : ball_a) {
    if (g.id(u) != h.id(u)) return false;
    if (advice_at(a, u) != advice_at(b, u)) return false;
  }

  std::vector<char> in_ball(static_cast<std::size_t>(g.n()), 0);
  for (const int u : ball_a) in_ball[static_cast<std::size_t>(u)] = 1;
  return induced_edges(g, ball_a, in_ball) == induced_edges(h, ball_b, in_ball);
}

LocalityAuditReport audit_decoded_pair(const DecodedInstance& base, const DecodedInstance& alt) {
  LAD_CHECK(base.g != nullptr && alt.g != nullptr);
  LAD_CHECK(base.g->n() == alt.g->n());
  LAD_CHECK(static_cast<int>(base.outputs.size()) == base.g->n());
  LAD_CHECK(static_cast<int>(alt.outputs.size()) == alt.g->n());

  LocalityAuditReport report;
  for (int v = 0; v < base.g->n(); ++v) {
    const int radius = radius_at(base, v);
    if (!views_identical(base, alt, v, radius)) {
      ++report.nodes_skipped;
      continue;
    }
    ++report.nodes_checked;
    const auto& out_base = base.outputs[static_cast<std::size_t>(v)];
    const auto& out_alt = alt.outputs[static_cast<std::size_t>(v)];
    if (out_base != out_alt) {
      report.violations.push_back(make_violation(
          base, alt, v, radius,
          "output changed from \"" + out_base + "\" to \"" + out_alt + "\""));
      continue;
    }
    // Halting rounds are per-node observables only for engine runs; a global
    // declared radius is a max over nodes and may change with far inputs.
    if (!base.rounds_per_node.empty() && !alt.rounds_per_node.empty() &&
        radius_at(base, v) != radius_at(alt, v)) {
      report.violations.push_back(make_violation(base, alt, v, radius, "halting round changed"));
    }
  }
  return report;
}

LocalityAuditReport audit_sync_algorithm(const Graph& g, const Graph& alt, const AlgFactory& make,
                                         int max_rounds) {
  auto base_alg = make(g);
  Engine base_eng(g);
  base_eng.enable_audit(/*fail_fast=*/false);
  const RunResult base_run = base_eng.run(*base_alg, max_rounds);

  auto alt_alg = make(alt);
  Engine alt_eng(alt);
  const RunResult alt_run = alt_eng.run(*alt_alg, max_rounds);

  DecodedInstance base_inst;
  base_inst.g = &g;
  base_inst.outputs = base_run.outputs;
  base_inst.rounds_per_node = base_run.halt_round;
  base_inst.rounds = base_run.rounds;

  DecodedInstance alt_inst;
  alt_inst.g = &alt;
  alt_inst.outputs = alt_run.outputs;
  alt_inst.rounds_per_node = alt_run.halt_round;
  alt_inst.rounds = alt_run.rounds;

  LocalityAuditReport report = audit_decoded_pair(base_inst, alt_inst);
  report.provenance = base_eng.audit_log();
  for (const auto& viol : report.provenance.violations) {
    report.violations.push_back(viol);
  }
  return report;
}

Graph with_ids(const Graph& g, const std::vector<NodeId>& ids) {
  LAD_CHECK(static_cast<int>(ids.size()) == g.n());
  Graph::Builder b;
  for (int v = 0; v < g.n(); ++v) b.add_node(ids[static_cast<std::size_t>(v)]);
  for (int e = 0; e < g.m(); ++e) b.add_edge(g.edge_u(e), g.edge_v(e));
  return std::move(b).build();
}

Graph rotate_ids_outside_ball(const Graph& g, int center, int radius) {
  const LocalBfs ball(g, center, radius);
  std::vector<int> outside;
  for (int v = 0; v < g.n(); ++v) {
    if (!ball.reached(v)) outside.push_back(v);
  }
  if (outside.size() < 2) return with_ids(g, [&] {
    std::vector<NodeId> same;
    for (int v = 0; v < g.n(); ++v) same.push_back(g.id(v));
    return same;
  }());

  // Sort the outside nodes by ID and hand each the next ID in the cycle — a
  // derangement of the outside IDs, identity inside.
  std::sort(outside.begin(), outside.end(),
            [&](int x, int y) { return g.id(x) < g.id(y); });
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) ids.push_back(g.id(v));
  const std::size_t k = outside.size();
  for (std::size_t i = 0; i < k; ++i) {
    ids[static_cast<std::size_t>(outside[i])] = g.id(outside[(i + 1) % k]);
  }
  return with_ids(g, ids);
}

std::vector<std::string> advice_strings_from_bits(const std::vector<char>& bits) {
  std::vector<std::string> out;
  out.reserve(bits.size());
  for (const char b : bits) out.emplace_back(b ? "1" : "0");
  return out;
}

}  // namespace lad
