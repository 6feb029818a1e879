// Synchronous message-passing engine for the LOCAL model.
//
// Semantics (§3.2 of the paper): computation proceeds in synchronous rounds;
// in each round every non-halted node reads the messages its neighbors sent
// in the previous round, performs arbitrary local computation, sends one
// (arbitrarily large) message per port, and may halt with an output. The
// runtime of an algorithm is the number of rounds until every node has
// halted.
//
// Nodes initially know: their own ID, their degree, their neighbors' IDs
// (port-numbered with ID-sorted ports), the maximum degree Delta, and n.
//
// Message plane: a send appends its payload, length-prefixed, to a byte
// arena owned by the sender's pool chunk and stores an 8-byte {arena,
// offset} reference in the sender's port slot; a broadcast writes its
// payload once and points every port at it. Delivery is receiver pull: each receiver slot t reads the
// sender slot twin[t] of the same edge. A received payload is therefore a
// std::string_view into an arena, valid until the receiving node's round()
// returns — copy whatever must outlive the round.
//
// Audit mode (enable_audit) additionally tracks per-node information
// provenance: the set of origin nodes whose initial state (ID, input,
// advice) the node's view can depend on. Every message is tagged with its
// sender's provenance at send time; reading a message merges the tag into
// the reader's set. After every round the engine asserts that each node's
// provenance lies inside its radius-`round` ball — the LOCAL-model analogue
// of a race detector. See local/audit.hpp for the complementary
// indistinguishability audit that catches algorithms bypassing this API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "util/contracts.hpp"

namespace lad {

class Engine;
class ThreadPool;

/// Per-node, per-round interface handed to algorithms.
class NodeCtx {
 public:
  int node() const { return v_; }
  NodeId id() const;
  int degree() const;
  int n() const;
  int max_degree() const;
  int round_number() const { return round_; }

  /// ID of the neighbor on the given port (ports are ID-sorted).
  NodeId neighbor_id(int port) const;

  /// Message received on `port` this round (empty if none). The view
  /// points into the engine's arenas and is valid until this node's
  /// round() returns.
  std::string_view received(int port) const;
  bool has_message(int port) const;

  /// Sends `payload` to the neighbor on `port`, delivered next round. The
  /// bytes are copied; a second send on the same port in one round
  /// replaces the first.
  void send(int port, std::string_view payload);

  /// Sends the same payload on all ports (stored once).
  void broadcast(std::string_view payload);

  /// Terminates this node with the given output; `round()` is not called on
  /// it again.
  void halt(std::string output);

 private:
  friend class Engine;
  NodeCtx(Engine& eng, int v, int round, int chunk)
      : eng_(eng), v_(v), round_(round), chunk_(chunk) {}
  Engine& eng_;
  int v_;
  int round_;
  int chunk_;  // pool chunk executing this node: selects the send arena
};

/// A distributed algorithm: `round` is invoked once per node per round.
/// Implementations typically keep per-node state in vectors indexed by
/// ctx.node(); `init` is the place to size them.
class SyncAlgorithm {
 public:
  virtual ~SyncAlgorithm() = default;
  virtual void init(const Graph& g) { (void)g; }
  virtual void round(NodeCtx& ctx) = 0;

  /// Called when the fault model recovers node `v` from a crash
  /// (crash-recovery faults): the node rejoins with *blank* state — the
  /// engine has already discarded its pending inbox and outbox — and this
  /// hook must reset whatever per-node state the algorithm keeps for `v`
  /// so that it genuinely re-converges instead of resuming mid-protocol.
  /// Default: the algorithm keeps no resettable per-node state.
  virtual void on_recover(const Graph& g, int v) {
    (void)g;
    (void)v;
  }
};

struct RunResult {
  /// Rounds executed until global termination (or max_rounds).
  int rounds = 0;
  bool all_halted = false;
  /// Output string each node halted with ("" if it never halted).
  std::vector<std::string> outputs;
  /// Round in which each node halted (-1 if it never halted).
  std::vector<int> halt_round;
  /// Message complexity: messages delivered and their total payload bytes.
  long long messages = 0;
  long long bytes = 0;
  /// Nodes down at the end of the run (empty when no fault model is
  /// installed). Under crash-stop this is every node that ever crashed;
  /// under crash-recovery a node that rejoined is no longer marked.
  std::vector<char> crashed;
};

/// Optional fault model consulted by the engine while running an algorithm.
///
/// All hooks must be *deterministic pure functions* of their arguments
/// (plus any seed baked into the implementation): the engine may consult
/// them in any order and, when it has a thread pool, from several threads
/// at once, and reproducibility of fault campaigns depends on the answers
/// not varying with iteration order. Faults are applied so that the
/// audit/provenance machinery stays sound: a dropped message removes
/// information (never adds any); a corrupted, duplicated, or delayed
/// payload keeps the sender's provenance tag, which over-approximates what
/// the reader can now know (delay only increases the round at read time, so
/// ball containment still holds).
class EngineFaultModel {
 public:
  virtual ~EngineFaultModel() = default;

  /// True if node `v` is down during `round` (1-based). A down node
  /// executes nothing and sends nothing; it does not count as active, so
  /// runs still terminate. A model whose answer is monotone in the round
  /// describes crash-stop; a model that answers true on a bounded interval
  /// describes crash-*recovery* — when the answer flips back to false the
  /// engine discards the node's pending messages, calls
  /// SyncAlgorithm::on_recover, and lets it rejoin with blank state.
  virtual bool crashed(int round, int v) const {
    (void)round;
    (void)v;
    return false;
  }

  /// True if the message sent in `round` from node `from` to node `to`
  /// is dropped in transit (receiver sees no message on that port).
  virtual bool drop_message(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return false;
  }

  /// May mutate `payload` in place; returns true iff it did.
  virtual bool corrupt_message(int round, int from, int to, std::string& payload) const {
    (void)round;
    (void)from;
    (void)to;
    (void)payload;
    return false;
  }

  /// True if the message delivered in `round` from `from` to `to` is also
  /// duplicated: a stale copy arrives again one round later. The duplicate
  /// is discarded (and counted) if a fresh message occupies the port when
  /// it lands — stale information never masks fresh information.
  virtual bool duplicate_message(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return false;
  }

  /// Extra rounds the message sent in `round` from `from` to `to` spends
  /// in transit (0 = delivered on time). A delayed message lands in the
  /// receiver's port only if no fresh message occupies it by then.
  virtual int delay_rounds(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return 0;
  }
};

/// Accounting of faults the engine actually applied during one run().
struct EngineFaultStats {
  long long dropped = 0;
  long long corrupted = 0;
  long long duplicated = 0;       // stale copies scheduled by the model
  long long delayed = 0;          // messages held back at least one round
  long long stale_discarded = 0;  // late copies that lost to a fresh message
  int crashed_nodes = 0;          // crash events (a node crashes at most once)
  int recovered_nodes = 0;        // crash-recovery rejoins with blank state
};

/// Per-round provenance accounting of an audited run.
struct ProvenanceRoundStats {
  int round = 0;
  int active_nodes = 0;      // nodes that executed this round
  int max_set_size = 0;      // largest provenance set
  double avg_set_size = 0.0; // mean provenance set size over active nodes
  int max_radius = 0;        // max dist(v, origin) over all tracked pairs
};

/// A node whose provenance escaped its radius-`round` ball.
struct ProvenanceViolation {
  int node = -1;
  NodeId node_id = 0;
  int round = 0;
  int origin = -1;          // offending origin (node index)
  NodeId origin_id = 0;
  int origin_distance = 0;  // dist(node, origin) > round
  std::string detail;
};

struct EngineAuditLog {
  std::vector<ProvenanceRoundStats> per_round;
  std::vector<ProvenanceViolation> violations;
  bool clean() const { return violations.empty(); }
};

class Engine {
 public:
  explicit Engine(const Graph& g) : g_(g) {}

  /// Turns on provenance tracking for subsequent run() calls. With
  /// `fail_fast` (the default) a ball-containment violation throws
  /// ContractViolation; otherwise it is recorded in audit_log().
  void enable_audit(bool fail_fast = true) {
    audit_ = true;
    audit_fail_fast_ = fail_fast;
  }

  const EngineAuditLog& audit_log() const { return audit_log_; }

  /// Installs a fault model for subsequent run() calls (non-owning; pass
  /// nullptr to restore fault-free execution). Composes with enable_audit.
  void set_fault_model(const EngineFaultModel* model) { faults_ = model; }

  /// Faults applied during the most recent run().
  const EngineFaultStats& fault_stats() const { return fault_stats_; }

  /// Fans each round's node steps and its delivery pass out over `pool`
  /// (non-owning; pass nullptr to restore serial execution). Node steps
  /// within a synchronous round are independent by definition of the
  /// model, and every per-node effect (send arena, outbox slots, halt
  /// state, provenance set) lands in state owned by that node or its
  /// chunk; delivery writes only the receiving chunk's inbox slots, arenas
  /// and pending lists. Results are therefore byte-identical to serial
  /// execution at any thread count. Requirement on algorithms: round(ctx)
  /// must touch only state belonging to ctx.node() (every SyncAlgorithm in
  /// this repository keeps its state in vectors indexed by ctx.node(),
  /// which qualifies). Fault transitions and the audit pass stay serial.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Runs `alg` until all nodes halt or `max_rounds` elapse.
  RunResult run(SyncAlgorithm& alg, int max_rounds);

 private:
  friend class NodeCtx;

  /// A message (or provenance tag) record: a 4-byte length, then the
  /// bytes, at offset `bits & kOffMask` in arena `bits >> kArenaShift`.
  /// bits == kNone means no message. A port slot is one of these, so
  /// delivery moves 8 bytes per port.
  struct MsgRef {
    static constexpr int kArenaShift = 48;
    static constexpr std::uint64_t kOffMask = (std::uint64_t{1} << kArenaShift) - 1;
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};
    std::uint64_t bits = kNone;
    bool present() const { return bits != kNone; }
    std::uint32_t arena() const { return static_cast<std::uint32_t>(bits >> kArenaShift); }
    std::uint64_t off() const { return bits & kOffMask; }
  };

  /// Bytes per cache line. Per-chunk state that the hot loops write (an
  /// arena's size on every send, a chunk's counters on every delivery) is
  /// aligned to it, so no two chunks ever write the same line (DESIGN.md
  /// §8.1). A named constant: GCC warns (-Winterference-size) when
  /// std::hardware_destructive_interference_size is used in a header.
  static constexpr std::size_t kCacheLine = 64;

  /// Append-only byte buffer, reused across rounds: clear() keeps the
  /// capacity, and growth copies only the bytes in use (nothing is zeroed).
  class alignas(kCacheLine) Arena {
   public:
    const char* data() const { return data_.get(); }
    std::uint64_t size() const { return size_; }
    void clear() { size_ = 0; }
    /// Appends `n` uninitialized bytes; returns where they start.
    char* grow(std::uint64_t n);

   private:
    std::unique_ptr<char[]> data_;
    std::uint64_t size_ = 0;
    std::uint64_t cap_ = 0;
  };

  /// A delayed original or a stale duplicate in transit to receiver slot
  /// `slot`, due at the delivery pass of round `due`. Its payload record,
  /// then (audit only) its provenance-tag record, sit at `off` in the
  /// receiving chunk's pending store.
  struct Pending {
    int due = 0;
    int slot = 0;
    std::uint64_t off = 0;
  };

  /// Per-chunk state of a round: whether the compute phase stepped any
  /// node, and for the delivery pass the pending list (in send order) with
  /// its record store, a scratch payload for the corruption hook, and the
  /// counters the pass folds in chunk order.
  struct alignas(kCacheLine) Chunk {
    bool active = false;
    std::vector<Pending> pending;
    Arena store;
    Arena store_next;
    std::string scratch;
    long long messages = 0;
    long long bytes = 0;
    EngineFaultStats faults;
  };

  /// The latest provenance snapshot a node sent: re-taken only when the
  /// round changes or the node's set grew since.
  struct Snapshot {
    int round = 0;
    bool stale = true;
    MsgRef tag;
  };

  // Arena ids: send arenas (written by node steps) are [0, 2C), receiver
  // arenas (corrupted copies and landed pending messages, written by the
  // delivery pass) are [2C, 4C); generation round & 1 of chunk c.
  std::uint32_t send_arena(int round, int chunk) const {
    return static_cast<std::uint32_t>((round & 1) * chunks_ + chunk);
  }
  std::uint32_t recv_arena(int round, int chunk) const {
    return static_cast<std::uint32_t>((2 + (round & 1)) * chunks_ + chunk);
  }
  MsgRef put(std::uint32_t arena, std::string_view bytes);
  /// Appends a whole record (length prefix included) to `to`; returns its
  /// offset there.
  static std::uint64_t copy_record(const char* record, Arena& to);
  static std::uint32_t record_len(const char* record);
  const char* record(const MsgRef& r) const { return arenas_[r.arena()].data() + r.off(); }
  std::string_view view(const MsgRef& r) const {
    const char* rec = record(r);
    return {rec + sizeof(std::uint32_t), record_len(rec)};
  }
  MsgRef tag_of(int v, int round, int chunk);
  void merge_provenance(int v, const MsgRef& tag);
  void reset_provenance(int v);
  void build_twins();
  void step_chunk(SyncAlgorithm& alg, int round, int begin, int end, int c);
  void deliver_chunk(int round, int begin, int end, int c);
  void hold(Chunk& ck, int due, int slot, const MsgRef& msg, const MsgRef& tag);
  void replay_pending(Chunk& ck, int round, int c);
  void audit_round(int round);

  const Graph& g_;
  int chunks_ = 1;
  std::vector<int> twin_;      // receiver slot -> sender slot of the same edge
  std::vector<MsgRef> in_;     // per port slot (CSR adjacency offsets)
  std::vector<MsgRef> out_;
  std::vector<Arena> arenas_;
  std::vector<Chunk> chunk_state_;
  std::vector<char> halted_;
  std::vector<char> crashed_;
  std::vector<std::string> outputs_;
  std::vector<int> halt_round_;

  const EngineFaultModel* faults_ = nullptr;
  EngineFaultStats fault_stats_;
  ThreadPool* pool_ = nullptr;

  bool audit_ = false;
  bool audit_fail_fast_ = true;
  EngineAuditLog audit_log_;
  std::vector<std::vector<int>> prov_;  // per node, sorted origin sets
  std::vector<Snapshot> snap_;          // per node
  std::vector<MsgRef> in_tag_;          // per port slot, audit only
  std::vector<MsgRef> out_tag_;

  int slot(int v, int port) const {
    const auto off = g_.raw_adj_off();
    LAD_ASSERT(v >= 0 && v < g_.n());
    LAD_ASSERT(port >= 0 && off[v] + port < off[v + 1]);
    return off[v] + port;
  }
};

// The per-port reads are inline: an algorithm calls them once per port per
// round, which makes them the hottest calls of a message-bound run.

inline int NodeCtx::degree() const { return eng_.g_.degree(v_); }

inline bool NodeCtx::has_message(int port) const {
  const auto s = static_cast<std::size_t>(eng_.slot(v_, port));
  if (!eng_.in_[s].present()) return false;
  // The presence bit is information originating at the sender; taint it too.
  if (eng_.audit_) eng_.merge_provenance(v_, eng_.in_tag_[s]);
  return true;
}

inline std::string_view NodeCtx::received(int port) const {
  const auto s = static_cast<std::size_t>(eng_.slot(v_, port));
  const Engine::MsgRef& m = eng_.in_[s];
  if (!m.present()) return {};
  if (eng_.audit_) eng_.merge_provenance(v_, eng_.in_tag_[s]);
  return eng_.view(m);
}

}  // namespace lad
