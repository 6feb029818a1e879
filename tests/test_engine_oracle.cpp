// Differential oracle for the engine's message plane: lad::Engine (arenas,
// twin-port receiver-pull delivery, per-chunk pending lists, ball-local
// audit) against the string-slot engine frozen in tests/reference_engine.hpp.
// Every algorithm is written once as a template over the context type and
// run on both engines, on several graph shapes, under every engine fault
// kind alone and all mixed, at 1, 2 and 8 threads, with and without the
// provenance audit. The run results, all seven fault statistics and the
// audit log must agree byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "graph/generators.hpp"
#include "local/engine.hpp"
#include "reference_engine.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Appends what port p holds this round to `log`: '-' for no message,
// otherwise the payload's length and bytes, so an empty payload, a missing
// one and a corrupted one all leave different traces.
template <class Ctx>
void log_port(Ctx& ctx, int p, std::string& log) {
  if (!ctx.has_message(p)) {
    log += '-';
    return;
  }
  const std::string_view m = ctx.received(p);
  log += std::to_string(m.size());
  log += ':';
  log.append(m.data(), m.size());
  log += ';';
}

/// Per-node string state, reset to the node's ID on init and on recovery.
template <class Base>
class LoggingAlgorithm : public Base {
 public:
  void init(const Graph& g) override {
    log_.assign(static_cast<std::size_t>(g.n()), "");
    for (int v = 0; v < g.n(); ++v) on_recover(g, v);
  }
  void on_recover(const Graph& g, int v) override {
    log_[static_cast<std::size_t>(v)] = std::to_string(g.id(v)) + '#';
  }

 protected:
  std::string& log(int v) { return log_[static_cast<std::size_t>(v)]; }

 private:
  std::vector<std::string> log_;
};

/// Flooding: every node broadcasts everything it has seen, then halts.
template <class Base, class Ctx>
class Flood final : public LoggingAlgorithm<Base> {
 public:
  void round(Ctx& ctx) override {
    std::string& k = this->log(ctx.node());
    for (int p = 0; p < ctx.degree(); ++p) log_port(ctx, p, k);
    if (ctx.round_number() > 4) {
      ctx.halt(k);
      return;
    }
    ctx.broadcast(k);
  }
};

/// A different payload on every port, some of them over the 15-byte
/// small-string capacity. Port 0 is sent before the node reads its inbox,
/// so under audit it carries a smaller provenance tag than the others.
template <class Base, class Ctx>
class PerPort final : public LoggingAlgorithm<Base> {
 public:
  void round(Ctx& ctx) override {
    std::string& k = this->log(ctx.node());
    const int r = ctx.round_number();
    if (r <= 5 && ctx.degree() > 0) ctx.send(0, payload(ctx, 0));
    for (int p = 0; p < ctx.degree(); ++p) log_port(ctx, p, k);
    if (r > 5) {
      ctx.halt(k);
      return;
    }
    for (int p = 1; p < ctx.degree(); ++p) ctx.send(p, payload(ctx, p));
  }

 private:
  static std::string payload(Ctx& ctx, int p) {
    std::string m = std::to_string(ctx.id()) + '/' + std::to_string(ctx.round_number()) + '/' +
                    std::to_string(p);
    if ((ctx.id() + p) % 3 == 0) m += "-padding-past-sso";
    return m;
  }
};

/// Empty payloads on even ports, one byte on odd ones: corruption turns an
/// empty payload into one byte, which the byte count must not see.
template <class Base, class Ctx>
class EmptyPayloads final : public LoggingAlgorithm<Base> {
 public:
  void round(Ctx& ctx) override {
    std::string& k = this->log(ctx.node());
    for (int p = 0; p < ctx.degree(); ++p) log_port(ctx, p, k);
    if (ctx.round_number() > 4) {
      ctx.halt(k);
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, p % 2 == 0 ? "" : "x");
  }
};

/// Two sends on one port in one round, and a broadcast overwritten on one
/// port: only the last payload per port travels.
template <class Base, class Ctx>
class DoubleSend final : public LoggingAlgorithm<Base> {
 public:
  void round(Ctx& ctx) override {
    std::string& k = this->log(ctx.node());
    for (int p = 0; p < ctx.degree(); ++p) log_port(ctx, p, k);
    if (ctx.round_number() > 4) {
      ctx.halt(k);
      return;
    }
    if (ctx.degree() == 0) return;
    ctx.send(0, "dropped-by-overwrite");
    ctx.send(0, "second-" + std::to_string(ctx.id()));
    ctx.broadcast("all-" + std::to_string(ctx.round_number()));
    ctx.send(ctx.degree() - 1, k.substr(0, 24));
  }
};

/// Nodes with even IDs send once and halt in round 1; the rest keep
/// flooding, so messages keep landing on halted nodes.
template <class Base, class Ctx>
class HaltRound1 final : public LoggingAlgorithm<Base> {
 public:
  void round(Ctx& ctx) override {
    std::string& k = this->log(ctx.node());
    for (int p = 0; p < ctx.degree(); ++p) log_port(ctx, p, k);
    if (ctx.id() % 2 == 0) {
      ctx.broadcast("bye");
      ctx.halt(k);
      return;
    }
    if (ctx.round_number() > 3) {
      ctx.halt(k);
      return;
    }
    ctx.broadcast(k);
  }
};

template <template <class, class> class Alg>
struct AlgPair {
  using New = Alg<SyncAlgorithm, NodeCtx>;
  using Ref = Alg<reference::SyncAlgorithm, reference::NodeCtx>;
};

std::string result_signature(const RunResult& r, const EngineFaultStats& f) {
  std::string s = "rounds=" + std::to_string(r.rounds) + " halted=" +
                  std::to_string(r.all_halted) + " messages=" + std::to_string(r.messages) +
                  " bytes=" + std::to_string(r.bytes) + "\n";
  for (const auto& o : r.outputs) s += o + "\n";
  for (const int h : r.halt_round) s += std::to_string(h) + ",";
  s += "\ncrashed=";
  for (const char c : r.crashed) s += static_cast<char>('0' + c);
  s += "\nfaults dropped=" + std::to_string(f.dropped) + " corrupted=" +
       std::to_string(f.corrupted) + " duplicated=" + std::to_string(f.duplicated) +
       " delayed=" + std::to_string(f.delayed) + " stale=" + std::to_string(f.stale_discarded) +
       " crashed=" + std::to_string(f.crashed_nodes) +
       " recovered=" + std::to_string(f.recovered_nodes);
  return s;
}

std::string audit_signature(const EngineAuditLog& log) {
  std::string s;
  char buf[64];
  for (const auto& r : log.per_round) {
    std::snprintf(buf, sizeof buf, "%.17g", r.avg_set_size);
    s += std::to_string(r.round) + ":" + std::to_string(r.active_nodes) + ":" +
         std::to_string(r.max_set_size) + ":" + buf + ":" + std::to_string(r.max_radius) + "\n";
  }
  for (const auto& v : log.violations) {
    s += std::to_string(v.node) + "/" + std::to_string(v.node_id) + "/" + std::to_string(v.round) +
         "/" + std::to_string(v.origin) + "/" + std::to_string(v.origin_id) + "/" +
         std::to_string(v.origin_distance) + "/" + v.detail + "\n";
  }
  return s;
}

struct Outcome {
  std::string result;
  std::string audit;
  EngineFaultStats stats;
};

template <class Alg>
Outcome run_new(const Graph& g, const EngineFaultModel* model, bool audit, int threads) {
  Alg alg;
  ThreadPool pool(threads);
  Engine eng(g);
  eng.set_thread_pool(&pool);
  eng.set_fault_model(model);
  if (audit) eng.enable_audit(/*fail_fast=*/false);
  const RunResult r = eng.run(alg, 9);
  return {result_signature(r, eng.fault_stats()), audit ? audit_signature(eng.audit_log()) : "",
          eng.fault_stats()};
}

template <class Alg>
Outcome run_reference(const Graph& g, const EngineFaultModel* model, bool audit) {
  Alg alg;
  reference::Engine eng(g);
  eng.set_fault_model(model);
  if (audit) eng.enable_audit(/*fail_fast=*/false);
  const RunResult r = eng.run(alg, 9);
  return {result_signature(r, eng.fault_stats()), audit ? audit_signature(eng.audit_log()) : "",
          eng.fault_stats()};
}

std::vector<std::pair<std::string, Graph>> oracle_graphs() {
  std::vector<std::pair<std::string, Graph>> gs;
  gs.emplace_back("cycle", make_cycle(40, IdMode::kRandomDense, 3));
  gs.emplace_back("grid", make_grid(6, 7, IdMode::kRandomDense, 4));
  gs.emplace_back("tree", make_bounded_degree_tree(45, 4, 5));
  // A path plus an isolated node (degree 0: no ports, never receives).
  std::vector<NodeId> ids;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 12; ++i) ids.push_back(100 + 7 * i);
  for (NodeId i = 0; i + 1 < 11; ++i) edges.emplace_back(100 + 7 * i, 100 + 7 * (i + 1));
  gs.emplace_back("isolated", make_graph(ids, edges));
  return gs;
}

std::vector<std::pair<std::string, faults::EngineFaultSpec>> oracle_specs() {
  std::vector<std::pair<std::string, faults::EngineFaultSpec>> specs;
  specs.emplace_back("none", faults::EngineFaultSpec{});
  faults::EngineFaultSpec s;
  s.message_drop_prob = 0.15;
  specs.emplace_back("drop", s);
  s = {};
  s.message_corrupt_prob = 0.2;
  specs.emplace_back("corrupt", s);
  s = {};
  s.message_delay_prob = 0.2;
  s.max_delay_rounds = 3;
  specs.emplace_back("delay", s);
  s = {};
  s.message_duplicate_prob = 0.25;
  specs.emplace_back("duplicate", s);
  s = {};
  s.crash_fraction = 0.15;
  s.crash_round_window = 3;
  specs.emplace_back("crash-stop", s);
  s.crash_recovery_rounds = 2;
  specs.emplace_back("crash-recovery", s);
  s.message_drop_prob = 0.08;
  s.message_corrupt_prob = 0.1;
  s.message_delay_prob = 0.15;
  s.max_delay_rounds = 2;
  s.message_duplicate_prob = 0.2;
  specs.emplace_back("mixed", s);
  return specs;
}

template <template <class, class> class Alg>
void compare_on_all(const char* name, EngineFaultStats& coverage) {
  for (const auto& [gname, g] : oracle_graphs()) {
    for (const auto& [sname, spec] : oracle_specs()) {
      const faults::HashedEngineFaults model(17, spec);
      const EngineFaultModel* fm = sname == "none" ? nullptr : &model;
      for (const bool audit : {false, true}) {
        const Outcome want = run_reference<typename AlgPair<Alg>::Ref>(g, fm, audit);
        coverage.dropped += want.stats.dropped;
        coverage.corrupted += want.stats.corrupted;
        coverage.duplicated += want.stats.duplicated;
        coverage.delayed += want.stats.delayed;
        coverage.stale_discarded += want.stats.stale_discarded;
        coverage.crashed_nodes += want.stats.crashed_nodes;
        coverage.recovered_nodes += want.stats.recovered_nodes;
        for (const int t : {1, 2, 8}) {
          const Outcome got = run_new<typename AlgPair<Alg>::New>(g, fm, audit, t);
          const std::string where = std::string(name) + " on " + gname + " under " + sname +
                                    (audit ? " (audited)" : "") + " at " + std::to_string(t) +
                                    " threads";
          EXPECT_EQ(got.result, want.result) << where;
          EXPECT_EQ(got.audit, want.audit) << where;
        }
      }
    }
  }
}

TEST(EngineOracle, MatchesReferenceEngineByteForByte) {
  EngineFaultStats coverage;
  compare_on_all<Flood>("flood", coverage);
  compare_on_all<PerPort>("per-port", coverage);
  compare_on_all<EmptyPayloads>("empty-payloads", coverage);
  compare_on_all<DoubleSend>("double-send", coverage);
  compare_on_all<HaltRound1>("halt-round-1", coverage);
  // The matrix must reach every fault path it claims to compare.
  EXPECT_GT(coverage.dropped, 0);
  EXPECT_GT(coverage.corrupted, 0);
  EXPECT_GT(coverage.duplicated, 0);
  EXPECT_GT(coverage.delayed, 0);
  EXPECT_GT(coverage.stale_discarded, 0);
  EXPECT_GT(coverage.crashed_nodes, 0);
  EXPECT_GT(coverage.recovered_nodes, 0);
}

}  // namespace
}  // namespace lad
