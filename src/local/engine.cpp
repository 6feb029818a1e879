#include "local/engine.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <sstream>

#include "graph/distance.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// A provenance set as the bytes of its ints, for storage in an arena.
std::string_view as_bytes(const std::vector<int>& set) {
  return {reinterpret_cast<const char*>(set.data()), set.size() * sizeof(int)};
}

}  // namespace

NodeId NodeCtx::id() const { return eng_.g_.id(v_); }
int NodeCtx::n() const { return eng_.g_.n(); }
int NodeCtx::max_degree() const { return eng_.g_.max_degree(); }

NodeId NodeCtx::neighbor_id(int port) const {
  const auto nb = eng_.g_.neighbors(v_);
  LAD_CHECK(port >= 0 && port < static_cast<int>(nb.size()));
  return eng_.g_.id(nb[port]);
}

void NodeCtx::send(int port, std::string_view payload) {
  const auto s = static_cast<std::size_t>(eng_.slot(v_, port));
  // Message-buffer allocation accounting (obs/profile.*): one increment per
  // port-send whose payload is beyond the 15-byte small-string capacity, as
  // when every port slot held its own std::string. The multiset of
  // increments is a pure function of the run, so the totals are byte-
  // deterministic at any thread count.
  LAD_TM({
    if (payload.size() > 15) {
      obs::core().alloc_msgbuf.add(1);
      obs::core().alloc_msgbuf_bytes.add(static_cast<long long>(payload.size()));
    }
  });
  eng_.out_[s] = eng_.put(eng_.send_arena(round_, chunk_), payload);
  if (eng_.audit_) eng_.out_tag_[s] = eng_.tag_of(v_, round_, chunk_);
}

void NodeCtx::broadcast(std::string_view payload) {
  const int deg = degree();
  if (deg == 0) return;
  LAD_TM({
    if (payload.size() > 15) {
      obs::core().alloc_msgbuf.add(deg);
      obs::core().alloc_msgbuf_bytes.add(static_cast<long long>(payload.size()) * deg);
    }
  });
  const auto first = static_cast<std::size_t>(eng_.slot(v_, 0));
  const Engine::MsgRef m = eng_.put(eng_.send_arena(round_, chunk_), payload);
  std::fill_n(eng_.out_.begin() + static_cast<std::ptrdiff_t>(first), deg, m);
  if (eng_.audit_) {
    const Engine::MsgRef tag = eng_.tag_of(v_, round_, chunk_);
    std::fill_n(eng_.out_tag_.begin() + static_cast<std::ptrdiff_t>(first), deg, tag);
  }
}

void NodeCtx::halt(std::string output) {
  eng_.halted_[v_] = 1;
  eng_.outputs_[v_] = std::move(output);
  eng_.halt_round_[v_] = round_;
}

char* Engine::Arena::grow(std::uint64_t n) {
  if (size_ + n > cap_) {
    const std::uint64_t cap = std::max<std::uint64_t>({size_ + n, 2 * cap_, 4096});
    auto bigger = std::make_unique_for_overwrite<char[]>(cap);
    if (size_ > 0) std::memcpy(bigger.get(), data_.get(), size_);
    data_ = std::move(bigger);
    cap_ = cap;
  }
  char* at = data_.get() + size_;
  size_ += n;
  return at;
}

std::uint32_t Engine::record_len(const char* record) {
  std::uint32_t len = 0;
  std::memcpy(&len, record, sizeof len);
  return len;
}

std::uint64_t Engine::copy_record(const char* record, Arena& to) {
  const std::uint64_t off = to.size();
  const std::uint64_t n = sizeof(std::uint32_t) + record_len(record);
  std::memcpy(to.grow(n), record, n);
  return off;
}

Engine::MsgRef Engine::put(std::uint32_t arena, std::string_view bytes) {
  if (bytes.size() > 0xffffffffu) {
    LAD_CHECK_MSG(false,
                  "a message of " << bytes.size() << " bytes exceeds the 4 GiB record limit");
  }
  Arena& a = arenas_[arena];
  MsgRef r;
  r.bits = (std::uint64_t{arena} << MsgRef::kArenaShift) | a.size();
  const auto len = static_cast<std::uint32_t>(bytes.size());
  char* at = a.grow(sizeof len + bytes.size());
  std::memcpy(at, &len, sizeof len);
  if (!bytes.empty()) std::memcpy(at + sizeof len, bytes.data(), bytes.size());
  return r;
}

Engine::MsgRef Engine::tag_of(int v, int round, int chunk) {
  // One snapshot per sending node per round: every port the node sends on
  // shares it, unless a read in between grew the set.
  Snapshot& s = snap_[static_cast<std::size_t>(v)];
  if (s.stale || s.round != round) {
    s.tag = put(send_arena(round, chunk), as_bytes(prov_[static_cast<std::size_t>(v)]));
    s.round = round;
    s.stale = false;
  }
  return s.tag;
}

void Engine::merge_provenance(int v, const MsgRef& tag) {
  // Per-thread scratch: the tag's ints, then the union, which swaps into
  // the node's set so buffers circulate instead of being reallocated.
  thread_local std::vector<int> origins;
  thread_local std::vector<int> merged;
  const std::string_view bytes = view(tag);
  origins.resize(bytes.size() / sizeof(int));
  if (!bytes.empty()) std::memcpy(origins.data(), bytes.data(), bytes.size());
  auto& into = prov_[static_cast<std::size_t>(v)];
  merged.clear();
  std::set_union(into.begin(), into.end(), origins.begin(), origins.end(),
                 std::back_inserter(merged));
  if (merged.size() == into.size()) return;  // nothing new
  into.swap(merged);
  snap_[static_cast<std::size_t>(v)].stale = true;
}

void Engine::reset_provenance(int v) {
  // Initial knowledge: own ID/input plus the IDs of the port-ordered
  // neighbors — exactly the radius-1 ball.
  auto& pv = prov_[static_cast<std::size_t>(v)];
  const auto nb = g_.neighbors(v);
  pv.assign(nb.begin(), nb.end());
  pv.push_back(v);
  std::sort(pv.begin(), pv.end());
  snap_[static_cast<std::size_t>(v)].stale = true;
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
    // Ball-local containment: a BFS from v capped at `round` that stops
    // once every origin is reached. An origin it misses escaped the ball;
    // its exact distance, for the report, comes from a point query.
    const LocalBfs ball(g_, v, round, {}, pv);
    for (const int o : pv) {
      const int d = ball.reached(o) ? ball.dist(o) : distance(g_, v, o);
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

void Engine::build_twins() {
  // The two port slots of an edge are each other's twins (graphs are
  // simple, so an edge has exactly two). One pass over the incident-edge
  // array pairs them through an m-sized first-seen table.
  const auto inc = g_.raw_inc();
  twin_.resize(inc.size());
  std::vector<int> first(static_cast<std::size_t>(g_.m()), -1);
  for (std::size_t s = 0; s < inc.size(); ++s) {
    int& f = first[static_cast<std::size_t>(inc[s])];
    if (f < 0) {
      f = static_cast<int>(s);
    } else {
      twin_[s] = f;
      twin_[static_cast<std::size_t>(f)] = static_cast<int>(s);
    }
  }
}

void Engine::step_chunk(SyncAlgorithm& alg, int round, int begin, int end, int c,
                        bool& active) {
  // The arena this chunk sends into last served round - 2, whose messages
  // were all read in round - 1.
  arenas_[send_arena(round, c)].clear();
  for (int v = begin; v < end; ++v) {
    if (halted_[v] || crashed_[v]) continue;
    active = true;
    NodeCtx ctx(*this, v, round, c);
    alg.round(ctx);
  }
}

void Engine::hold(Chunk& ck, int due, int slot, const MsgRef& msg, const MsgRef& tag) {
  Pending p;
  p.due = due;
  p.slot = slot;
  p.off = copy_record(record(msg), ck.store);
  if (audit_) copy_record(record(tag), ck.store);
  ck.pending.push_back(p);
}

void Engine::deliver_chunk(int round, int begin, int end, int c) {
  // Receiver pull: slot t of receiver u takes the message its neighbor
  // v = adj[t] left in the twin slot. Drop and delay decide first (a
  // delayed message skips corruption and duplication, as it is not
  // delivered now); then corrupt, which copies the payload into this
  // chunk's receiver arena, and duplicate. Every decision is a pure hash
  // of (round, v, u), so each chunk decides its own receivers' slots.
  Chunk& ck = chunk_state_[static_cast<std::size_t>(c)];
  const std::uint32_t recv = recv_arena(round, c);
  arenas_[recv].clear();
  const auto off = g_.raw_adj_off();
  const auto adj = g_.raw_adj();
  for (int u = begin; u < end; ++u) {
    for (int t = off[u]; t < off[u + 1]; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const auto si = static_cast<std::size_t>(twin_[ti]);
      MsgRef m = out_[si];
      if (!m.present()) {
        in_[ti] = MsgRef{};
        continue;
      }
      out_[si] = MsgRef{};
      const MsgRef tag = audit_ ? out_tag_[si] : MsgRef{};
      const int v = adj[ti];
      if (faults_ != nullptr) {
        if (faults_->drop_message(round, v, u)) {
          // A drop only removes information, so provenance stays sound.
          ++ck.faults.dropped;
          in_[ti] = MsgRef{};
          continue;
        }
        const int delay = faults_->delay_rounds(round, v, u);
        if (delay > 0) {
          // Held in transit: accounted (messages/bytes) at actual delivery.
          // The payload keeps the sender's tag; reading it later only
          // increases the round, so ball containment still holds.
          ++ck.faults.delayed;
          hold(ck, round + delay, t, m, tag);
          in_[ti] = MsgRef{};
          continue;
        }
      }
      ck.messages += 1;
      ck.bytes += record_len(record(m));
      if (faults_ != nullptr) {
        const std::string_view body = view(m);
        ck.scratch.assign(body.data(), body.size());
        if (faults_->corrupt_message(round, v, u, ck.scratch)) {
          // A corrupted payload keeps the sender's tag: that over-approximates
          // what the reader can learn, so ball containment still holds.
          ++ck.faults.corrupted;
          m = put(recv, ck.scratch);
        }
        if (faults_->duplicate_message(round, v, u)) {
          // A stale copy of the (possibly corrupted) delivered payload
          // arrives again next round; same provenance tag, so sound.
          ++ck.faults.duplicated;
          hold(ck, round + 1, t, m, tag);
        }
      }
      in_[ti] = m;
      if (audit_) in_tag_[ti] = tag;
    }
  }
  replay_pending(ck, round, c);
}

void Engine::replay_pending(Chunk& ck, int round, int c) {
  // Late deliveries due this round, in send order. A slot's entries come
  // from one sender port, so this chunk-local list orders them exactly as
  // one global send-order queue would. Fresh messages win port conflicts:
  // a stale copy landing on an occupied port is discarded and counted,
  // never overwrites. Landed payloads move to the receiver arena; the
  // rest are compacted into the next store.
  if (ck.pending.empty()) return;
  Arena& recv = arenas_[recv_arena(round, c)];
  const std::uint64_t recv_bits = std::uint64_t{recv_arena(round, c)} << MsgRef::kArenaShift;
  ck.store_next.clear();
  std::size_t kept = 0;
  for (Pending p : ck.pending) {
    const char* msg = ck.store.data() + p.off;
    const char* tag = msg + sizeof(std::uint32_t) + record_len(msg);
    if (p.due != round) {
      p.off = copy_record(msg, ck.store_next);
      if (audit_) copy_record(tag, ck.store_next);
      ck.pending[kept++] = p;
      continue;
    }
    const auto ti = static_cast<std::size_t>(p.slot);
    if (in_[ti].present()) {
      ++ck.faults.stale_discarded;
      continue;
    }
    ck.messages += 1;
    ck.bytes += record_len(msg);
    in_[ti].bits = recv_bits | copy_record(msg, recv);
    if (audit_) in_tag_[ti].bits = recv_bits | copy_record(tag, recv);
  }
  ck.pending.resize(kept);
  std::swap(ck.store, ck.store_next);
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
  const auto slots = static_cast<std::size_t>(2) * static_cast<std::size_t>(g_.m());
  ThreadPool* pool = pool_ != nullptr && pool_->threads() > 1 ? pool_ : nullptr;
  chunks_ = pool != nullptr ? pool->threads() : 1;

  build_twins();
  in_.assign(slots, MsgRef{});
  out_.assign(slots, MsgRef{});
  LAD_CHECK_MSG(4 * chunks_ <= 0xffff, "too many pool chunks for the message plane");
  arenas_.resize(static_cast<std::size_t>(4 * chunks_));
  for (Arena& a : arenas_) a.clear();
  chunk_state_ = std::vector<Chunk>(static_cast<std::size_t>(chunks_));
  halted_.assign(static_cast<std::size_t>(n), 0);
  crashed_.assign(static_cast<std::size_t>(n), 0);
  outputs_.assign(static_cast<std::size_t>(n), "");
  halt_round_.assign(static_cast<std::size_t>(n), -1);
  fault_stats_ = {};

  if (audit_) {
    audit_log_ = {};
    prov_.assign(static_cast<std::size_t>(n), {});
    snap_.assign(static_cast<std::size_t>(n), Snapshot{});
    for (int v = 0; v < n; ++v) reset_provenance(v);
    in_tag_.assign(slots, MsgRef{});
    out_tag_.assign(slots, MsgRef{});
  }

  alg.init(g_);

  const auto off = g_.raw_adj_off();
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
          for (int s = off[v]; s < off[v + 1]; ++s) {
            in_[static_cast<std::size_t>(s)] = MsgRef{};
            out_[static_cast<std::size_t>(s)] = MsgRef{};
          }
          alg.on_recover(g_, v);
          if (audit_) reset_provenance(v);
        }
      }
    }
    // Compute phase. Node steps within a synchronous round are independent
    // (LOCAL-model semantics), and every per-node effect — outbox slots,
    // halt state, the reader-side provenance set — lands in slots owned by
    // the executing node, and its payloads in its chunk's send arena, so the
    // steps may fan out over a thread pool with byte-identical results. The
    // pool's static partition keeps the chunk -> node mapping deterministic.
    bool any_active = false;
    {
      // Phase span for the profiler: node-step compute time on the caller's
      // thread; pool dispatch additionally shows up as pool.chunk spans on
      // the executing workers.
      LAD_TM_SPAN(compute_span, "engine.compute", "engine");
      if (pool != nullptr) {
        std::vector<char> chunk_active(static_cast<std::size_t>(chunks_), 0);
        pool->parallel_for(n, [&](int begin, int end, int c) {
          bool active = false;
          step_chunk(alg, round, begin, end, c, active);
          chunk_active[static_cast<std::size_t>(c)] = active ? 1 : 0;
        });
        for (const char a : chunk_active) any_active = any_active || a != 0;
      } else {
        step_chunk(alg, round, 0, n, 0, any_active);
      }
    }
    if (!any_active) break;
    res.rounds = round;
    if (audit_) audit_round(round);

    // Deliver, by receiver, on the same partition as the compute phase:
    // each chunk fills its own nodes' inbox slots and replays its own
    // pending list, and the per-chunk counters are folded in chunk order.
    // The span closes before the round span (reverse declaration order),
    // so the profiler attributes it to the message-exchange phase.
    LAD_TM_SPAN(deliver_span, "engine.deliver", "engine");
    if (pool != nullptr) {
      pool->parallel_for(n,
                         [&](int begin, int end, int c) { deliver_chunk(round, begin, end, c); });
    } else {
      deliver_chunk(round, 0, n, 0);
    }
    for (Chunk& ck : chunk_state_) {
      res.messages += ck.messages;
      res.bytes += ck.bytes;
      fault_stats_.dropped += ck.faults.dropped;
      fault_stats_.corrupted += ck.faults.corrupted;
      fault_stats_.duplicated += ck.faults.duplicated;
      fault_stats_.delayed += ck.faults.delayed;
      fault_stats_.stale_discarded += ck.faults.stale_discarded;
      ck.messages = 0;
      ck.bytes = 0;
      ck.faults = {};
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
  res.outputs = std::move(outputs_);
  res.halt_round = std::move(halt_round_);
  if (faults_ != nullptr) res.crashed = std::move(crashed_);

  // Message/round/fault accounting, folded once per run from the counters
  // above — the totals are a pure function of the run, so they are
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
