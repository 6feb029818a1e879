#include "local/engine.hpp"

#include <algorithm>
#include <sstream>

#include "graph/distance.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Sorted-set union of `add` into `into`.
void merge_sorted(std::vector<int>& into, const std::vector<int>& add) {
  if (add.empty()) return;
  std::vector<int> merged;
  merged.reserve(into.size() + add.size());
  std::set_union(into.begin(), into.end(), add.begin(), add.end(), std::back_inserter(merged));
  into.swap(merged);
}

}  // namespace

NodeId NodeCtx::id() const { return eng_.g_.id(v_); }
int NodeCtx::degree() const { return eng_.g_.degree(v_); }
int NodeCtx::n() const { return eng_.g_.n(); }
int NodeCtx::max_degree() const { return eng_.g_.max_degree(); }

NodeId NodeCtx::neighbor_id(int port) const {
  const auto nb = eng_.g_.neighbors(v_);
  LAD_CHECK(port >= 0 && port < static_cast<int>(nb.size()));
  return eng_.g_.id(nb[port]);
}

const std::string& NodeCtx::received(int port) const {
  static const std::string kEmpty;
  const int s = eng_.slot(v_, port);
  if (eng_.audit_ && eng_.inbox_present_[s]) {
    eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  }
  return eng_.inbox_present_[s] ? eng_.inbox_[s] : kEmpty;
}

bool NodeCtx::has_message(int port) const {
  const int s = eng_.slot(v_, port);
  // The presence bit is information originating at the sender; taint it too.
  if (eng_.audit_ && eng_.inbox_present_[s]) {
    eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  }
  return eng_.inbox_present_[s] != 0;
}

void NodeCtx::send(int port, std::string payload) {
  const int s = eng_.slot(v_, port);
  // Message-buffer allocation accounting (obs/profile.*): payloads beyond
  // the 15-byte SSO capacity heap-allocate. Counted per send — the multiset
  // of increments is a pure function of the run, so the totals are byte-
  // deterministic at any thread count and land in the profile's
  // message-exchange allocation column.
  LAD_TM({
    if (payload.size() > 15) {
      obs::core().alloc_msgbuf.add(1);
      obs::core().alloc_msgbuf_bytes.add(static_cast<long long>(payload.size()));
    }
  });
  eng_.outbox_[s] = std::move(payload);
  eng_.outbox_present_[s] = 1;
  if (eng_.audit_) eng_.outbox_prov_[s] = eng_.prov_[v_];
}

void NodeCtx::broadcast(const std::string& payload) {
  for (int p = 0; p < degree(); ++p) send(p, payload);
}

void NodeCtx::halt(std::string output) {
  eng_.halted_[v_] = 1;
  eng_.outputs_[v_] = std::move(output);
  eng_.halt_round_[v_] = round_;
}

void Engine::merge_provenance(int v, const std::vector<int>& origins) {
  merge_sorted(prov_[static_cast<std::size_t>(v)], origins);
}

void Engine::audit_round(int round) {
  ProvenanceRoundStats stats;
  stats.round = round;
  long long total = 0;
  for (int v = 0; v < g_.n(); ++v) {
    // Nodes halted in an earlier round have frozen (already-checked) sets.
    if (halt_round_[static_cast<std::size_t>(v)] >= 0 &&
        halt_round_[static_cast<std::size_t>(v)] < round) {
      continue;
    }
    const auto& pv = prov_[static_cast<std::size_t>(v)];
    ++stats.active_nodes;
    total += static_cast<long long>(pv.size());
    stats.max_set_size = std::max(stats.max_set_size, static_cast<int>(pv.size()));
    const auto& dv = dist_[static_cast<std::size_t>(v)];
    for (const int o : pv) {
      const int d = dv[static_cast<std::size_t>(o)];
      LAD_ASSERT_MSG(d != kUnreachable, "provenance crossed a component boundary");
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
        if (audit_fail_fast_) {
          LAD_CHECK_MSG(false, "locality violation: " << viol.detail);
        }
      }
    }
  }
  stats.avg_set_size =
      stats.active_nodes > 0 ? static_cast<double>(total) / stats.active_nodes : 0.0;
  audit_log_.per_round.push_back(stats);
}

RunResult Engine::run(SyncAlgorithm& alg, int max_rounds) {
  // Telemetry is read-only observation: the span and the counters at the
  // end never feed back into the run, so enabling it cannot change a byte
  // of any output (pinned by tests/test_telemetry.cpp).
  LAD_TM_SPAN(run_span, "engine.run", "engine");
  // Flight recorder (DESIGN.md §13.3): open a per-run cursor so each round
  // below lands one RoundSample. The hook only reads counters — like the
  // span it cannot influence outputs.
  LAD_TM(obs::FlightRecorder::instance().begin_run());
  const int n = g_.n();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + g_.degree(v);
  }
  const int total_ports = offsets_[n];
  const auto& offsets = offsets_;

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
    // Initial knowledge: own ID/input plus the IDs of the port-ordered
    // neighbors — exactly the radius-1 ball.
    prov_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) {
      auto& pv = prov_[static_cast<std::size_t>(v)];
      const auto nb = g_.neighbors(v);
      pv.assign(nb.begin(), nb.end());
      pv.push_back(v);
      std::sort(pv.begin(), pv.end());
    }
    inbox_prov_.assign(static_cast<std::size_t>(total_ports), {});
    outbox_prov_.assign(static_cast<std::size_t>(total_ports), {});
    dist_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) {
      dist_[static_cast<std::size_t>(v)] = bfs_distances(g_, v);
    }
  }

  alg.init(g_);

  // Messages in transit beyond the synchronous one-round latency: delayed
  // originals and stale duplicates, due at the delivery phase of `due`.
  // Insertion order is the serial (sender, port) scan order, so replaying
  // the queue is deterministic at any thread count.
  struct PendingMsg {
    int due = 0;
    int slot = 0;  // receiver inbox slot
    std::string payload;
    std::vector<int> prov;
  };
  std::vector<PendingMsg> pending;

  RunResult res;
  for (int round = 1; round <= max_rounds; ++round) {
    // One span per synchronous round (compute + audit + delivery). Short
    // SSO name: no allocation even with telemetry enabled.
    LAD_TM_SPAN(round_span, "engine.round", "engine");
    LAD_TM(obs::FlightRecorder::instance().begin_round());
    // Fault transitions, serial: crash decisions are pure functions of
    // (round, v), so hoisting them out of the parallel compute phase keeps
    // results byte-identical while letting crash-*recovery* mutate shared
    // per-node state (inbox, outbox, algorithm state) race-free.
    if (faults_ != nullptr) {
      // Phase span for the profiler: fault-transition time (crash/recovery
      // scans) attributed separately from compute and delivery.
      LAD_TM_SPAN(faults_span, "engine.faults", "engine");
      for (int v = 0; v < n; ++v) {
        if (halted_[v]) continue;
        const bool down = faults_->crashed(round, v);
        if (down && !crashed_[v]) {
          // Crash: the node executes nothing while down and never halts,
          // but it does not count as active, so runs still terminate.
          crashed_[v] = 1;
          ++fault_stats_.crashed_nodes;
        } else if (!down && crashed_[v]) {
          // Recovery: rejoin with blank state. Everything the node held or
          // was about to receive is discarded; the algorithm resets its
          // per-node state and the node re-converges from scratch.
          crashed_[v] = 0;
          ++fault_stats_.recovered_nodes;
          for (int s = offsets_[v]; s < offsets_[v + 1]; ++s) {
            inbox_present_[static_cast<std::size_t>(s)] = 0;
            inbox_[static_cast<std::size_t>(s)].clear();
            outbox_present_[static_cast<std::size_t>(s)] = 0;
            outbox_[static_cast<std::size_t>(s)].clear();
            if (audit_) {
              inbox_prov_[static_cast<std::size_t>(s)].clear();
              outbox_prov_[static_cast<std::size_t>(s)].clear();
            }
          }
          alg.on_recover(g_, v);
          if (audit_) {
            // Blank state resets knowledge to the initial radius-1 ball.
            auto& pv = prov_[static_cast<std::size_t>(v)];
            const auto nb = g_.neighbors(v);
            pv.assign(nb.begin(), nb.end());
            pv.push_back(v);
            std::sort(pv.begin(), pv.end());
          }
        }
      }
    }
    // Compute phase. Node steps within a synchronous round are independent
    // (LOCAL-model semantics), and every per-node effect — outbox slots,
    // halt state, the reader-side provenance set — lands in slots owned by
    // the executing node, so the steps may fan out over a thread pool with
    // byte-identical results. The pool's static partition keeps the
    // chunk -> node mapping deterministic; per-chunk accumulators are folded
    // with order-independent reductions (OR / sum).
    bool any_active = false;
    {
      // Phase span for the profiler: node-step compute time on the caller's
      // thread; pool dispatch additionally shows up as pool.chunk spans on
      // the executing workers.
      LAD_TM_SPAN(compute_span, "engine.compute", "engine");
      auto step_nodes = [&](int begin, int end, bool& active) {
        for (int v = begin; v < end; ++v) {
          if (halted_[v] || crashed_[v]) continue;
          active = true;
          NodeCtx ctx(*this, v, round);
          alg.round(ctx);
        }
      };
      if (pool_ != nullptr && pool_->threads() > 1) {
        std::vector<char> chunk_active(static_cast<std::size_t>(pool_->threads()), 0);
        pool_->parallel_for(n, [&](int begin, int end, int c) {
          bool active = false;
          step_nodes(begin, end, active);
          chunk_active[static_cast<std::size_t>(c)] = active ? 1 : 0;
        });
        for (const char a : chunk_active) any_active = any_active || a != 0;
      } else {
        step_nodes(0, n, any_active);
      }
    }
    if (!any_active) break;
    res.rounds = round;
    if (audit_) audit_round(round);

    // Deliver: a message sent by v on port p arrives at u = nb(v)[p] on
    // u's port q = port_of(u, v). The span covers the rest of the round
    // body — delivery plus the late-delivery replay below — and closes
    // before the round span (reverse declaration order), so the profiler
    // attributes both to the message-exchange phase.
    LAD_TM_SPAN(deliver_span, "engine.deliver", "engine");
    std::fill(inbox_present_.begin(), inbox_present_.end(), 0);
    for (int v = 0; v < n; ++v) {
      const auto nb = g_.neighbors(v);
      for (int p = 0; p < static_cast<int>(nb.size()); ++p) {
        const int s = offsets[v] + p;
        if (!outbox_present_[s]) continue;
        const int u = nb[p];
        if (faults_ != nullptr && faults_->drop_message(round, v, u)) {
          // A drop only removes information, so provenance stays sound.
          ++fault_stats_.dropped;
          outbox_present_[s] = 0;
          outbox_[s].clear();
          if (audit_) outbox_prov_[static_cast<std::size_t>(s)].clear();
          continue;
        }
        const int q = g_.port_of(u, v);
        LAD_ASSERT_MSG(q >= 0, "delivery to a non-neighbor port");
        const int t = offsets[u] + q;
        const int delay = faults_ != nullptr ? faults_->delay_rounds(round, v, u) : 0;
        if (delay > 0) {
          // Held in transit: accounted (messages/bytes) at actual delivery.
          // The payload keeps the sender's tag; reading it later only
          // increases the round, so ball containment still holds.
          ++fault_stats_.delayed;
          PendingMsg pm;
          pm.due = round + delay;
          pm.slot = t;
          pm.payload = std::move(outbox_[s]);
          if (audit_) pm.prov = std::move(outbox_prov_[static_cast<std::size_t>(s)]);
          pending.push_back(std::move(pm));
          outbox_present_[s] = 0;
          outbox_[s].clear();
          if (audit_) outbox_prov_[static_cast<std::size_t>(s)].clear();
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
          // A corrupted payload keeps the sender's tag: that over-approximates
          // what the reader can learn, so ball containment still holds.
          inbox_prov_[static_cast<std::size_t>(t)] =
              std::move(outbox_prov_[static_cast<std::size_t>(s)]);
          outbox_prov_[static_cast<std::size_t>(s)].clear();
        }
        if (faults_ != nullptr && faults_->duplicate_message(round, v, u)) {
          // A stale copy of the (possibly corrupted) delivered payload
          // arrives again next round; same provenance tag, so sound.
          ++fault_stats_.duplicated;
          PendingMsg pm;
          pm.due = round + 1;
          pm.slot = t;
          pm.payload = inbox_[t];
          if (audit_) pm.prov = inbox_prov_[static_cast<std::size_t>(t)];
          pending.push_back(std::move(pm));
        }
      }
    }
    // Late deliveries due this round, in insertion (send) order. Fresh
    // messages win port conflicts: a stale copy landing on an occupied
    // port is discarded and counted, never overwrites.
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
        inbox_[static_cast<std::size_t>(pm.slot)] = std::move(pm.payload);
        inbox_present_[static_cast<std::size_t>(pm.slot)] = 1;
        if (audit_) inbox_prov_[static_cast<std::size_t>(pm.slot)] = std::move(pm.prov);
      }
      pending.swap(still_pending);
    }
    // One flight-recorder sample per completed round: the recorder turns
    // these cumulative per-run totals into per-round deltas (deterministic
    // slice) and drains the pool's wait window (measured slice).
    LAD_TM(obs::FlightRecorder::instance().end_round(
        round, res.messages, res.bytes,
        fault_stats_.dropped + fault_stats_.corrupted + fault_stats_.duplicated +
            fault_stats_.delayed + fault_stats_.crashed_nodes,
        fault_stats_.recovered_nodes));
  }

  res.all_halted = std::all_of(halted_.begin(), halted_.end(), [](char h) { return h != 0; });
  res.outputs = outputs_;
  res.halt_round = halt_round_;
  if (faults_ != nullptr) res.crashed = crashed_;

  // Message/round/fault accounting, folded once per run from the serial
  // counters above — the totals are a pure function of the run, so they are
  // byte-deterministic at any thread count.
  LAD_TM({
    auto& m = obs::core();
    m.engine_runs.add(1);
    m.engine_rounds.add(res.rounds);
    m.engine_messages.add(res.messages);
    m.engine_message_bits.add(res.bytes * 8);
    m.engine_messages_dropped.add(fault_stats_.dropped);
    m.engine_messages_corrupted.add(fault_stats_.corrupted);
    m.engine_messages_duplicated.add(fault_stats_.duplicated);
    m.engine_messages_delayed.add(fault_stats_.delayed);
    m.engine_crashed_nodes.add(fault_stats_.crashed_nodes);
    m.engine_recovered_nodes.add(fault_stats_.recovered_nodes);
    m.engine_run_messages.observe(res.messages);
  });
  return res;
}

}  // namespace lad
