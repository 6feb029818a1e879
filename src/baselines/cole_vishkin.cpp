#include "baselines/cole_vishkin.hpp"

#include <algorithm>
#include <string>

#include "graph/checkers.hpp"

namespace lad {
namespace {

long long bits_of(long long x) {
  long long b = 0;
  while (x > 0) {
    x >>= 1;
    ++b;
  }
  return std::max(1LL, b);
}

// Lowest index at which two distinct values differ, and the bit of `mine`
// there: the Cole–Vishkin reduction step.
long long cv_reduce(long long mine, long long succ) {
  long long diff = mine ^ succ;
  int i = 0;
  while (!(diff & 1)) {
    diff >>= 1;
    ++i;
  }
  return 2LL * i + ((mine >> i) & 1LL);
}

// Deterministic phase schedule, identical at every node (depends only on
// the public ID-space bound n^3): how many CV iterations until the palette
// bound drops to 6.
int cv_iterations(long long n) {
  long long bound = std::max<long long>(8, n * n * n + 1);
  int iters = 0;
  while (bound > 6) {
    bound = 2 * bits_of(bound - 1);
    ++iters;
  }
  return iters;
}

class CvAlgorithm : public SyncAlgorithm {
 public:
  CvAlgorithm(const std::vector<int>& successor, std::vector<int>& out_colors)
      : successor_(successor), out_(out_colors) {}

  void init(const Graph& g) override {
    g_ = &g;
    color_.resize(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) color_[v] = g.id(v);
    cv_rounds_ = cv_iterations(g.n());
  }

  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    const int succ = successor_[v];
    int pred = succ;
    for (const int u : g_->neighbors(v)) {
      if (u != succ) pred = u;
    }
    const int succ_port = g_->port_of(v, succ);
    const int pred_port = g_->port_of(v, pred);
    const int r = ctx.round_number();

    auto announce = [&] {
      ctx.send(pred_port, std::to_string(color_[v]));
      ctx.send(succ_port, std::to_string(color_[v]));
    };

    if (r == 1) {  // warm-up: announce the initial (ID) coloring
      announce();
      return;
    }

    const long long succ_color = std::stoll(std::string(ctx.received(succ_port)));
    const long long pred_color = std::stoll(std::string(ctx.received(pred_port)));

    if (r <= 1 + cv_rounds_) {
      color_[v] = cv_reduce(color_[v], succ_color);
      announce();
      return;
    }

    // Palette is now {0..5}; three rounds eliminate classes 5, 4, 3 (each
    // class is independent, so simultaneous recoloring is safe).
    const int k = r - (2 + cv_rounds_);  // 0, 1, 2
    const long long target = 5 - k;
    if (color_[v] == target) {
      for (long long c = 0; c < 3; ++c) {
        if (c != succ_color && c != pred_color) {
          color_[v] = c;
          break;
        }
      }
    }
    if (k == 2) {
      out_[v] = static_cast<int>(color_[v]) + 1;
      ctx.halt(std::to_string(color_[v]));
      return;
    }
    announce();
  }

 private:
  const std::vector<int>& successor_;
  std::vector<int>& out_;
  const Graph* g_ = nullptr;
  std::vector<long long> color_;
  int cv_rounds_ = 0;
};

}  // namespace

std::vector<int> cycle_successors(const Graph& g) {
  LAD_CHECK(g.n() >= 3);
  std::vector<int> succ(static_cast<std::size_t>(g.n()), -1);
  int prev = 0;
  int cur = g.neighbors(0)[0];
  succ[0] = cur;
  while (cur != 0) {
    const auto nb = g.neighbors(cur);
    LAD_CHECK_MSG(nb.size() == 2, "cycle_successors requires a 2-regular graph");
    const int next = nb[0] == prev ? nb[1] : nb[0];
    succ[cur] = next;
    prev = cur;
    cur = next;
  }
  return succ;
}

ColeVishkinResult cole_vishkin_cycle(const Graph& g, const std::vector<int>& successor,
                                     EngineAuditLog* audit) {
  ColeVishkinResult res;
  res.colors.assign(static_cast<std::size_t>(g.n()), 0);
  CvAlgorithm alg(successor, res.colors);
  Engine eng(g);
  if (audit != nullptr) eng.enable_audit();
  const auto run = eng.run(alg, 1000);
  if (audit != nullptr) *audit = eng.audit_log();
  LAD_CHECK_MSG(run.all_halted, "Cole-Vishkin did not terminate");
  res.rounds = run.rounds;
  LAD_CHECK(is_proper_coloring(g, res.colors, 3));
  return res;
}

}  // namespace lad
