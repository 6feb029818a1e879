#include "lcl/solver.hpp"

#include <algorithm>

#include "graph/distance.hpp"

namespace lad {
namespace {

struct Var {
  bool is_node = true;
  int index = 0;  // node or edge index
};

class Search {
 public:
  Search(const Graph& g, const LclProblem& p, Labeling& lab, const std::vector<int>& free_nodes,
         const std::vector<int>& free_edges, const std::vector<int>& check_nodes,
         std::int64_t max_steps)
      : g_(g), p_(p), lab_(lab), check_(g), checks_(check_nodes), max_steps_(max_steps) {
    std::sort(checks_.begin(), checks_.end());
    checks_.erase(std::unique(checks_.begin(), checks_.end()), checks_.end());
    for (const int v : checks_) check_.insert(v);
    build_order(free_nodes, free_edges);
    // The free labels count as unassigned whatever they hold: save, then clear.
    saved_.reserve(order_.size());
    for (const Var& var : order_) saved_.push_back(slot_of(var));
    for (const Var& var : order_) slot_of(var) = -1;
  }

  /// False (labels restored) if no completion exists or exhausted().
  bool run() {
    try {
      if (search()) {
        // Every check node must now have a fully labeled region.
        for (const int v : checks_) {
          LAD_CHECK_MSG(region_fully_labeled(v), "check node " << g_.id(v)
                                                               << " region not fully labeled");
          LAD_CHECK(p_.valid_at(g_, lab_, v));
        }
        return true;
      }
    } catch (...) {
      restore();
      throw;
    }
    restore();
    return false;
  }

  bool exhausted() const { return steps_ > max_steps_; }

 private:
  // Orders variables by a BFS-like sweep so that constraints become fully
  // labeled (and thus prunable) as early as possible.
  void build_order(const std::vector<int>& free_nodes, const std::vector<int>& free_edges) {
    std::vector<Var> vars;
    if (p_.num_node_labels() > 0) {
      for (const int v : free_nodes) vars.push_back({true, v});
    }
    if (p_.num_edge_labels() > 0) {
      for (const int e : free_edges) vars.push_back({false, e});
    }
    // Anchor each variable at a node and sort by BFS order from the first
    // variable's anchor. The BFS stops once every anchor is reached.
    if (vars.empty()) {
      order_ = {};
      return;
    }
    auto anchor = [&](const Var& v) {
      return v.is_node ? v.index : std::min(g_.edge_u(v.index), g_.edge_v(v.index));
    };
    std::vector<int> anchors;
    anchors.reserve(vars.size());
    for (const Var& v : vars) anchors.push_back(anchor(v));
    const int root = vars.front().is_node ? vars.front().index : g_.edge_u(vars.front().index);
    const LocalBfs bfs(g_, root, -1, {}, anchors);
    auto key = [&](const Var& v) {
      const int a = anchor(v);
      const int d = bfs.reached(a) ? bfs.dist(a) : g_.n() + 1;
      return std::make_tuple(d, v.is_node ? 0 : 1, v.index);
    };
    std::sort(vars.begin(), vars.end(), [&](const Var& a, const Var& b) { return key(a) < key(b); });
    order_ = std::move(vars);
  }

  bool region_fully_labeled(int v) {
    const LocalBfs region(g_, v, p_.radius());
    for (const int u : region.nodes()) {
      if (p_.num_node_labels() > 0 && lab_.node_labels[u] == -1) return false;
      if (p_.num_edge_labels() > 0) {
        for (const int e : g_.incident_edges(u)) {
          if (lab_.edge_labels[e] == -1) return false;
        }
      }
    }
    return true;
  }

  // Check nodes whose constraint region contains the just-assigned variable.
  std::vector<int> affected_checks(const Var& var) {
    std::vector<int> out;
    const int r = p_.radius();
    auto collect = [&](int from, int radius) {
      const LocalBfs near(g_, from, radius);
      for (const int v : near.nodes()) {
        if (check_.contains(v)) out.push_back(v);
      }
    };
    if (var.is_node) {
      collect(var.index, r);
    } else {
      collect(g_.edge_u(var.index), r + 1);
      collect(g_.edge_v(var.index), r + 1);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  int& slot_of(const Var& var) {
    return var.is_node ? lab_.node_labels[var.index] : lab_.edge_labels[var.index];
  }

  void restore() {
    for (std::size_t i = 0; i < order_.size(); ++i) slot_of(order_[i]) = saved_[i];
  }

  // Backtracking over `order_` with an explicit stack (the search depth is
  // one level per free variable, far too deep for the call stack on large
  // instances). Each frame remembers the affected check nodes and the next
  // label to try; frames are dropped on backtrack and rebuilt on re-entry,
  // exactly like the activation records of the recursive formulation.
  struct Frame {
    std::vector<int> affected;
    int next_label = 1;
  };

  bool search() {
    std::vector<Frame> stack;
    std::size_t i = 0;
    while (i < order_.size()) {
      const Var& var = order_[i];
      if (stack.size() == i) {
        if (++steps_ > max_steps_) return false;
        LAD_CHECK_MSG(slot_of(var) == -1, "free variable listed twice");
        stack.push_back({affected_checks(var), 1});
      }
      Frame& f = stack.back();
      const int num_labels = var.is_node ? p_.num_node_labels() : p_.num_edge_labels();
      int& slot = slot_of(var);
      bool advanced = false;
      while (f.next_label <= num_labels) {
        slot = f.next_label++;
        bool ok = true;
        for (const int v : f.affected) {
          if (region_fully_labeled(v) && !p_.valid_at(g_, lab_, v)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          advanced = true;
          break;
        }
      }
      if (advanced) {
        ++i;
        continue;
      }
      slot = -1;  // exhausted every label: backtrack
      stack.pop_back();
      if (i == 0) return false;
      --i;
    }
    return ++steps_ <= max_steps_;
  }

  const Graph& g_;
  const LclProblem& p_;
  Labeling& lab_;
  NodeMap check_;
  std::vector<int> checks_;
  std::vector<Var> order_;
  std::vector<int> saved_;  // the free labels on entry, in order_ order
  std::int64_t max_steps_;
  std::int64_t steps_ = 0;
};

}  // namespace

bool solve_lcl(const Graph& g, const LclProblem& p, Labeling& lab,
               const std::vector<int>& free_nodes, const std::vector<int>& free_edges,
               const std::vector<int>& check_nodes, std::int64_t max_steps) {
  Search s(g, p, lab, free_nodes, free_edges, check_nodes, max_steps);
  const bool solved = s.run();
  LAD_CHECK_MSG(!s.exhausted(), "solve_lcl: step budget exhausted");
  return solved;
}

std::optional<Labeling> solve_lcl(const Graph& g, const LclProblem& p, std::int64_t max_steps) {
  std::vector<int> nodes(g.nodes().begin(), g.nodes().end());
  std::vector<int> edges(static_cast<std::size_t>(g.m()));
  for (int e = 0; e < g.m(); ++e) edges[e] = e;
  Labeling lab = Labeling::empty(g);
  Search s(g, p, lab, nodes, edges, nodes, max_steps);
  if (!s.run()) return std::nullopt;
  return lab;
}

}  // namespace lad
