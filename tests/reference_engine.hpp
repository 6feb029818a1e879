// Reference LOCAL engine: the string-slot message engine as it was before
// the receiver-pull message plane replaced it — per-port std::string inbox
// and outbox arrays, a serial sender-order delivery loop that finds the
// receiving port with port_of, one global pending queue for delayed and
// duplicated messages, and the all-pairs distance table behind the
// provenance audit. Kept verbatim in its semantics (serial compute, no
// telemetry) as the oracle tests/test_engine_oracle.cpp compares
// lad::Engine against. It has its own NodeCtx and SyncAlgorithm, and shares
// the result, fault-model and audit types with local/engine.hpp. Test-only:
// nothing under src/ may include this file.
#pragma once

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph/distance.hpp"
#include "local/engine.hpp"

namespace lad::reference {

class Engine;

class NodeCtx {
 public:
  int node() const { return v_; }
  NodeId id() const;
  int degree() const;
  int n() const;
  int max_degree() const;
  int round_number() const { return round_; }
  NodeId neighbor_id(int port) const;
  const std::string& received(int port) const;
  bool has_message(int port) const;
  void send(int port, std::string payload);
  void broadcast(const std::string& payload);
  void halt(std::string output);

 private:
  friend class Engine;
  NodeCtx(Engine& eng, int v, int round) : eng_(eng), v_(v), round_(round) {}
  Engine& eng_;
  int v_;
  int round_;
};

class SyncAlgorithm {
 public:
  virtual ~SyncAlgorithm() = default;
  virtual void init(const Graph& g) { (void)g; }
  virtual void round(NodeCtx& ctx) = 0;
  virtual void on_recover(const Graph& g, int v) {
    (void)g;
    (void)v;
  }
};

class Engine {
 public:
  explicit Engine(const Graph& g) : g_(g) {}

  void enable_audit(bool fail_fast = true) {
    audit_ = true;
    audit_fail_fast_ = fail_fast;
  }
  const EngineAuditLog& audit_log() const { return audit_log_; }
  void set_fault_model(const EngineFaultModel* model) { faults_ = model; }
  const EngineFaultStats& fault_stats() const { return fault_stats_; }

  inline RunResult run(SyncAlgorithm& alg, int max_rounds);

 private:
  friend class NodeCtx;

  static void merge_sorted(std::vector<int>& into, const std::vector<int>& add) {
    if (add.empty()) return;
    std::vector<int> merged;
    merged.reserve(into.size() + add.size());
    std::set_union(into.begin(), into.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    into.swap(merged);
  }

  void merge_provenance(int v, const std::vector<int>& origins) {
    merge_sorted(prov_[static_cast<std::size_t>(v)], origins);
  }

  void reset_provenance(int v) {
    auto& pv = prov_[static_cast<std::size_t>(v)];
    const auto nb = g_.neighbors(v);
    pv.assign(nb.begin(), nb.end());
    pv.push_back(v);
    std::sort(pv.begin(), pv.end());
  }

  inline void audit_round(int round);

  int slot(int v, int port) const {
    LAD_CHECK(port >= 0 && offsets_[v] + port < offsets_[v + 1]);
    return offsets_[v] + port;
  }

  const Graph& g_;
  std::vector<std::string> inbox_;
  std::vector<char> inbox_present_;
  std::vector<std::string> outbox_;
  std::vector<char> outbox_present_;
  std::vector<char> halted_;
  std::vector<char> crashed_;
  std::vector<std::string> outputs_;
  std::vector<int> halt_round_;
  std::vector<int> offsets_;

  const EngineFaultModel* faults_ = nullptr;
  EngineFaultStats fault_stats_;

  bool audit_ = false;
  bool audit_fail_fast_ = true;
  EngineAuditLog audit_log_;
  std::vector<std::vector<int>> prov_;
  std::vector<std::vector<int>> inbox_prov_;
  std::vector<std::vector<int>> outbox_prov_;
  std::vector<std::vector<int>> dist_;
};

inline NodeId NodeCtx::id() const { return eng_.g_.id(v_); }
inline int NodeCtx::degree() const { return eng_.g_.degree(v_); }
inline int NodeCtx::n() const { return eng_.g_.n(); }
inline int NodeCtx::max_degree() const { return eng_.g_.max_degree(); }

inline NodeId NodeCtx::neighbor_id(int port) const {
  const auto nb = eng_.g_.neighbors(v_);
  LAD_CHECK(port >= 0 && port < static_cast<int>(nb.size()));
  return eng_.g_.id(nb[port]);
}

inline const std::string& NodeCtx::received(int port) const {
  static const std::string kEmpty;
  const int s = eng_.slot(v_, port);
  if (eng_.audit_ && eng_.inbox_present_[s]) eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  return eng_.inbox_present_[s] ? eng_.inbox_[s] : kEmpty;
}

inline bool NodeCtx::has_message(int port) const {
  const int s = eng_.slot(v_, port);
  if (eng_.audit_ && eng_.inbox_present_[s]) eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  return eng_.inbox_present_[s] != 0;
}

inline void NodeCtx::send(int port, std::string payload) {
  const int s = eng_.slot(v_, port);
  eng_.outbox_[s] = std::move(payload);
  eng_.outbox_present_[s] = 1;
  if (eng_.audit_) eng_.outbox_prov_[s] = eng_.prov_[v_];
}

inline void NodeCtx::broadcast(const std::string& payload) {
  for (int p = 0; p < degree(); ++p) send(p, payload);
}

inline void NodeCtx::halt(std::string output) {
  eng_.halted_[v_] = 1;
  eng_.outputs_[v_] = std::move(output);
  eng_.halt_round_[v_] = round_;
}

inline void Engine::audit_round(int round) {
  ProvenanceRoundStats stats;
  stats.round = round;
  long long total = 0;
  for (int v = 0; v < g_.n(); ++v) {
    if (halt_round_[v] >= 0 && halt_round_[v] < round) continue;
    const auto& pv = prov_[v];
    ++stats.active_nodes;
    total += static_cast<long long>(pv.size());
    stats.max_set_size = std::max(stats.max_set_size, static_cast<int>(pv.size()));
    const auto& dv = dist_[v];
    for (const int o : pv) {
      const int d = dv[o];
      LAD_CHECK_MSG(d != kUnreachable, "provenance crossed a component boundary");
      stats.max_radius = std::max(stats.max_radius, d);
      if (d > round) {
        ProvenanceViolation viol;
        viol.node = v;
        viol.node_id = g_.id(v);
        viol.round = round;
        viol.origin = o;
        viol.origin_id = g_.id(o);
        viol.origin_distance = d;
        std::ostringstream os;
        os << "node " << g_.id(v) << " depends on origin " << g_.id(o) << " at distance " << d
           << " after round " << round;
        viol.detail = os.str();
        audit_log_.violations.push_back(viol);
        if (audit_fail_fast_) LAD_CHECK_MSG(false, "locality violation: " << viol.detail);
      }
    }
  }
  stats.avg_set_size =
      stats.active_nodes > 0 ? static_cast<double>(total) / stats.active_nodes : 0.0;
  audit_log_.per_round.push_back(stats);
}

inline RunResult Engine::run(SyncAlgorithm& alg, int max_rounds) {
  const int n = g_.n();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + g_.degree(v);
  const int total_ports = offsets_[n];

  inbox_.assign(static_cast<std::size_t>(total_ports), "");
  inbox_present_.assign(static_cast<std::size_t>(total_ports), 0);
  outbox_.assign(static_cast<std::size_t>(total_ports), "");
  outbox_present_.assign(static_cast<std::size_t>(total_ports), 0);
  halted_.assign(static_cast<std::size_t>(n), 0);
  crashed_.assign(static_cast<std::size_t>(n), 0);
  outputs_.assign(static_cast<std::size_t>(n), "");
  halt_round_.assign(static_cast<std::size_t>(n), -1);
  fault_stats_ = {};

  if (audit_) {
    audit_log_ = {};
    prov_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) reset_provenance(v);
    inbox_prov_.assign(static_cast<std::size_t>(total_ports), {});
    outbox_prov_.assign(static_cast<std::size_t>(total_ports), {});
    dist_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) dist_[v] = bfs_distances(g_, v);
  }

  alg.init(g_);

  struct PendingMsg {
    int due = 0;
    int slot = 0;
    std::string payload;
    std::vector<int> prov;
  };
  std::vector<PendingMsg> pending;

  RunResult res;
  for (int round = 1; round <= max_rounds; ++round) {
    if (faults_ != nullptr) {
      for (int v = 0; v < n; ++v) {
        if (halted_[v]) continue;
        const bool down = faults_->crashed(round, v);
        if (down && !crashed_[v]) {
          crashed_[v] = 1;
          ++fault_stats_.crashed_nodes;
        } else if (!down && crashed_[v]) {
          crashed_[v] = 0;
          ++fault_stats_.recovered_nodes;
          for (int s = offsets_[v]; s < offsets_[v + 1]; ++s) {
            inbox_present_[s] = 0;
            inbox_[s].clear();
            outbox_present_[s] = 0;
            outbox_[s].clear();
            if (audit_) {
              inbox_prov_[s].clear();
              outbox_prov_[s].clear();
            }
          }
          alg.on_recover(g_, v);
          if (audit_) reset_provenance(v);
        }
      }
    }

    bool any_active = false;
    for (int v = 0; v < n; ++v) {
      if (halted_[v] || crashed_[v]) continue;
      any_active = true;
      NodeCtx ctx(*this, v, round);
      alg.round(ctx);
    }
    if (!any_active) break;
    res.rounds = round;
    if (audit_) audit_round(round);

    std::fill(inbox_present_.begin(), inbox_present_.end(), 0);
    for (int v = 0; v < n; ++v) {
      const auto nb = g_.neighbors(v);
      for (int p = 0; p < static_cast<int>(nb.size()); ++p) {
        const int s = offsets_[v] + p;
        if (!outbox_present_[s]) continue;
        const int u = nb[p];
        if (faults_ != nullptr && faults_->drop_message(round, v, u)) {
          ++fault_stats_.dropped;
          outbox_present_[s] = 0;
          outbox_[s].clear();
          if (audit_) outbox_prov_[s].clear();
          continue;
        }
        const int q = g_.port_of(u, v);
        LAD_CHECK(q >= 0);
        const int t = offsets_[u] + q;
        const int delay = faults_ != nullptr ? faults_->delay_rounds(round, v, u) : 0;
        if (delay > 0) {
          ++fault_stats_.delayed;
          PendingMsg pm;
          pm.due = round + delay;
          pm.slot = t;
          pm.payload = std::move(outbox_[s]);
          if (audit_) pm.prov = std::move(outbox_prov_[s]);
          pending.push_back(std::move(pm));
          outbox_present_[s] = 0;
          outbox_[s].clear();
          if (audit_) outbox_prov_[s].clear();
          continue;
        }
        res.messages += 1;
        res.bytes += static_cast<long long>(outbox_[s].size());
        inbox_[t] = std::move(outbox_[s]);
        inbox_present_[t] = 1;
        outbox_present_[s] = 0;
        outbox_[s].clear();
        if (faults_ != nullptr && faults_->corrupt_message(round, v, u, inbox_[t])) {
          ++fault_stats_.corrupted;
        }
        if (audit_) {
          inbox_prov_[t] = std::move(outbox_prov_[s]);
          outbox_prov_[s].clear();
        }
        if (faults_ != nullptr && faults_->duplicate_message(round, v, u)) {
          ++fault_stats_.duplicated;
          PendingMsg pm;
          pm.due = round + 1;
          pm.slot = t;
          pm.payload = inbox_[t];
          if (audit_) pm.prov = inbox_prov_[t];
          pending.push_back(std::move(pm));
        }
      }
    }
    if (!pending.empty()) {
      std::vector<PendingMsg> still_pending;
      still_pending.reserve(pending.size());
      for (auto& pm : pending) {
        if (pm.due != round) {
          still_pending.push_back(std::move(pm));
          continue;
        }
        if (inbox_present_[pm.slot]) {
          ++fault_stats_.stale_discarded;
          continue;
        }
        res.messages += 1;
        res.bytes += static_cast<long long>(pm.payload.size());
        inbox_[pm.slot] = std::move(pm.payload);
        inbox_present_[pm.slot] = 1;
        if (audit_) inbox_prov_[pm.slot] = std::move(pm.prov);
      }
      pending.swap(still_pending);
    }
  }

  res.all_halted = std::all_of(halted_.begin(), halted_.end(), [](char h) { return h != 0; });
  res.outputs = outputs_;
  res.halt_round = halt_round_;
  if (faults_ != nullptr) res.crashed = crashed_;
  return res;
}

}  // namespace lad::reference
