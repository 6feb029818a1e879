#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/diff.hpp"
#include "obs/json_mini.hpp"
#include "obs/timeline.hpp"

namespace lad::obs {
namespace {

using jsonmini::JsonValue;
using jsonmini::json_array;
using jsonmini::json_bool;
using jsonmini::json_fixed;
using jsonmini::json_int;
using jsonmini::json_object;
using jsonmini::json_string;

std::string fmt3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string fmt1(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

double us_to_ms(long long us) { return static_cast<double>(us) / 1000.0; }

int phase_rank(const std::string& phase) {
  const auto& tax = phase_taxonomy();
  for (std::size_t i = 0; i < tax.size(); ++i) {
    if (tax[i] == phase) return static_cast<int>(i);
  }
  return static_cast<int>(tax.size());
}

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// splitmix64 (Steele–Lea–Flood): self-contained so obs stays stdlib-only.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

JsonValue deterministic_object(const RunDeterministic& d) {
  JsonValue phases = json_array();
  for (const PhaseAlloc& p : d.phases) {
    phases.array.push_back(json_object()
                               .add("phase", json_string(p.phase))
                               .add("allocs", json_int(p.allocs))
                               .add("alloc_bytes", json_int(p.alloc_bytes)));
  }
  JsonValue rounds = json_array();
  for (const RoundDelta& r : d.rounds) {
    rounds.array.push_back(json_object()
                               .add("round", json_int(r.round))
                               .add("messages", json_int(r.messages))
                               .add("bytes", json_int(r.bytes))
                               .add("faults", json_int(r.faults))
                               .add("repairs", json_int(r.repairs))
                               .add("allocs", json_int(r.allocs))
                               .add("alloc_bytes", json_int(r.alloc_bytes)));
  }
  return json_object()
      .add("pipeline", json_string(d.pipeline))
      .add("source", json_string(d.source))
      .add("graph_digest", json_string(d.graph_digest))
      .add("n", json_int(d.n))
      .add("m", json_int(d.m))
      .add("seed", jsonmini::json_number(std::to_string(d.seed)))
      .add("decode_rounds", json_int(d.decode_rounds))
      .add("verify_ok", json_bool(d.verify_ok))
      .add("output_digest", json_string(d.output_digest))
      .add("advice_bits", json_int(d.advice_bits))
      .add("engine_messages", json_int(d.engine_messages))
      .add("engine_message_bits", json_int(d.engine_message_bits))
      .add("phases", std::move(phases))
      .add("rounds", std::move(rounds));
}

JsonValue measured_object(const RunMeasured& r) {
  JsonValue phases = json_array();
  for (const PhaseTime& p : r.phases) {
    phases.array.push_back(json_object()
                               .add("phase", json_string(p.phase))
                               .add("self_ms", json_fixed(p.self_ms, 3))
                               .add("pct", json_fixed(p.pct, 1))
                               .add("spans", json_int(p.spans)));
  }
  JsonValue cells = json_array();
  for (const CostCell& c : r.cells) {
    cells.array.push_back(json_object()
                              .add("phase", json_string(c.phase))
                              .add("tid", json_int(c.tid))
                              .add("self_ms", json_fixed(c.self_ms, 3))
                              .add("spans", json_int(c.spans)));
  }
  JsonValue thread_rows = json_array();
  for (const ThreadRow& t : r.thread_rows) {
    thread_rows.array.push_back(json_object()
                                    .add("tid", json_int(t.tid))
                                    .add("name", json_string(t.name))
                                    .add("busy_ms", json_fixed(t.busy_ms, 3))
                                    .add("idle_ms", json_fixed(t.idle_ms, 3))
                                    .add("chunks", json_int(t.chunks))
                                    .add("steal", json_int(t.steal)));
  }
  JsonValue rounds = json_array();
  for (const RoundWait& w : r.rounds) {
    rounds.array.push_back(json_object()
                               .add("round", json_int(w.round))
                               .add("wall_ms", json_fixed(w.wall_ms, 3))
                               .add("dispatch_us", json_fixed(w.dispatch_us, 1))
                               .add("queue_us", json_fixed(w.queue_us, 1))
                               .add("wait_us", json_fixed(w.wait_us, 1))
                               .add("max_wait_us", json_fixed(w.max_wait_us, 1))
                               .add("workers", json_int(w.workers))
                               .add("imbalance", json_fixed(w.imbalance, 3))
                               .add("critical_tid", json_int(w.critical_tid)));
  }
  return json_object()
      .add("threads", json_int(r.threads))
      .add("wall_ms", json_fixed(r.total_ms, 3))
      .add("imbalance", json_fixed(r.imbalance, 2))
      .add("serial_ms", json_fixed(r.serial_ms, 3))
      .add("compute_ms", json_fixed(r.compute_ms, 3))
      .add("serial_fraction", json_fixed(r.serial_fraction, 3))
      .add("predicted_max_speedup", json_fixed(r.predicted_max_speedup, 3))
      .add("measured_speedup", json_fixed(r.measured_speedup, 3))
      .add("trace_events", json_int(r.trace_events))
      .add("trace_dropped", json_int(r.trace_dropped))
      .add("flight_dropped", json_int(r.flight_dropped))
      .add("phases", std::move(phases))
      .add("cells", std::move(cells))
      .add("thread_rows", std::move(thread_rows))
      .add("rounds", std::move(rounds));
}

}  // namespace

const std::vector<std::string>& phase_taxonomy() {
  static const std::vector<std::string> kPhases = {
      "gather", "compute", "message-exchange", "fault-transition", "verify", "other",
  };
  return kPhases;
}

std::string phase_of_span(const std::string& span_name) {
  // The mapping is total over span_name_catalog(); tests pin that every
  // catalog entry lands in a non-"other" phase unless listed as harness
  // scaffolding (engine.run/round, campaign/chaos wrappers, pool chunks
  // outside compute are impossible — chunks only run compute work).
  if (has_prefix(span_name, "gather.")) return "gather";
  if (span_name == "engine.compute" || span_name == "pool.chunk" ||
      has_prefix(span_name, "pipeline.encode/") || has_prefix(span_name, "pipeline.decode/")) {
    return "compute";
  }
  if (span_name == "engine.deliver") return "message-exchange";
  if (span_name == "engine.faults" || has_prefix(span_name, "inject.")) return "fault-transition";
  if (has_prefix(span_name, "pipeline.verify/") || has_prefix(span_name, "guarded.decode/") ||
      span_name == "campaign.checks") {
    return "verify";
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Self-time attribution

std::map<std::pair<std::string, int>, CellAccum> self_times_by_cell(
    const std::vector<std::pair<int, std::vector<TraceEvent>>>& events_by_thread) {
  std::map<std::pair<std::string, int>, CellAccum> out;
  struct Frame {
    const std::string* name;
    std::uint64_t begin_us;
    long long child_us;
  };
  for (const auto& [tid, events] : events_by_thread) {
    std::vector<Frame> stack;
    for (const TraceEvent& ev : events) {
      if (ev.phase == 'B') {
        stack.push_back({&ev.name, ev.ts_us, 0});
        continue;
      }
      if (ev.phase != 'E' || stack.empty()) continue;  // foreign or unbalanced
      const Frame f = stack.back();
      stack.pop_back();
      const long long total_us = static_cast<long long>(ev.ts_us - f.begin_us);
      const long long self_us = std::max(0LL, total_us - f.child_us);
      CellAccum& cell = out[{phase_of_span(*f.name), tid}];
      cell.self_us += self_us;
      cell.spans += 1;
      if (!stack.empty()) stack.back().child_us += total_us;
    }
    // Spans still open at snapshot time are dropped, not guessed at.
  }
  return out;
}

std::string top_phase_from_trace() {
  const auto cells = self_times_by_cell(TraceRecorder::instance().events_by_thread());
  if (cells.empty()) return {};
  std::map<std::string, long long> by_phase;
  for (const auto& [key, acc] : cells) by_phase[key.first] += acc.self_us;
  std::string best;
  long long best_us = -1;
  for (const std::string& phase : phase_taxonomy()) {  // taxonomy order breaks ties
    const auto it = by_phase.find(phase);
    const long long us = it == by_phase.end() ? 0 : it->second;
    if (us > best_us) {
      best = phase;
      best_us = us;
    }
  }
  return best_us > 0 ? best : std::string{};
}

std::string fingerprint_hex(const std::vector<std::string>& parts) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::string& p : parts) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(p.size()));
    for (const char c : p) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Reading the instruments

void reset_instruments() {
  MetricsRegistry::instance().reset();
  TraceRecorder::instance().clear();
  WaitAccounting::instance().reset();
  FlightRecorder::instance().clear();
}

RunMeasured capture_instruments(int threads, double total_ms, RunDeterministic& slice) {
  slice.engine_messages = core().engine_messages.value();
  slice.engine_message_bits = core().engine_message_bits.value();
  // Allocation totals per phase: the two counting hooks are pinned to the
  // phase whose buffers they count; the other phases report zero.
  slice.phases.clear();
  for (const std::string& phase : phase_taxonomy()) {
    PhaseAlloc row{phase, 0, 0};
    if (phase == "gather") {
      row.allocs = core().alloc_gather.value();
      row.alloc_bytes = core().alloc_gather_bytes.value();
    } else if (phase == "message-exchange") {
      row.allocs = core().alloc_msgbuf.value();
      row.alloc_bytes = core().alloc_msgbuf_bytes.value();
    }
    slice.phases.push_back(row);
  }

  RunMeasured run;
  run.threads = threads;
  run.total_ms = total_ms;
  slice.rounds.clear();
  for (const RoundSample& s : FlightRecorder::instance().samples()) {
    slice.rounds.push_back({s.round, s.messages, s.bytes, s.faults, s.repairs, s.allocs,
                            s.alloc_bytes});
    run.rounds.push_back({s.round, s.wall_ms, s.dispatch_us, s.queue_us, s.wait_us,
                          s.max_wait_us, s.workers, s.imbalance, s.critical_tid});
  }
  run.flight_dropped = FlightRecorder::instance().dropped();

  const TraceRecorder& rec = TraceRecorder::instance();
  const auto events_by_thread = rec.events_by_thread();
  const auto cells = self_times_by_cell(events_by_thread);
  long long total_self_us = 0;
  std::map<std::string, CellAccum> by_phase;
  for (const auto& [key, acc] : cells) {
    total_self_us += acc.self_us;
    CellAccum& p = by_phase[key.first];
    p.self_us += acc.self_us;
    p.spans += acc.spans;
    run.cells.push_back({key.first, key.second, us_to_ms(acc.self_us), acc.spans});
  }
  std::sort(run.cells.begin(), run.cells.end(), [](const CostCell& a, const CostCell& b) {
    if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
    if (a.phase != b.phase) return phase_rank(a.phase) < phase_rank(b.phase);
    return a.tid < b.tid;
  });
  for (const auto& [phase, acc] : by_phase) {
    const double pct = total_self_us > 0 ? 100.0 * static_cast<double>(acc.self_us) /
                                               static_cast<double>(total_self_us)
                                         : 0.0;
    run.phases.push_back({phase, us_to_ms(acc.self_us), pct, acc.spans});
  }
  std::sort(run.phases.begin(), run.phases.end(), [](const PhaseTime& a, const PhaseTime& b) {
    if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
    return phase_rank(a.phase) < phase_rank(b.phase);
  });
  const SerialSplit split = serial_split_from_trace();
  run.serial_ms = split.serial_ms;
  run.compute_ms = split.compute_ms;
  run.serial_fraction = split.serial_fraction;

  // Thread rows: one per worker of the chunk ledger plus any traced thread.
  const auto slots = WaitAccounting::instance().slots();
  long long total_chunks = 0;
  long long max_busy = 0;
  long long sum_busy = 0;
  for (const auto& s : slots) {
    total_chunks += s.chunks;
    max_busy = std::max(max_busy, s.busy_us);
    sum_busy += s.busy_us;
  }
  const auto workers = static_cast<long long>(slots.size());
  const long long fair_share = workers > 0 ? (total_chunks + workers - 1) / workers : 0;
  std::vector<int> tids;
  for (const auto& s : slots) tids.push_back(s.tid);
  for (const auto& [tid, events] : events_by_thread) {
    run.trace_events += static_cast<long long>(events.size());
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  const auto names = rec.thread_names();
  for (const int tid : tids) {
    ThreadRow row;
    row.tid = tid;
    for (const auto& [t, name] : names) {
      if (t == tid) row.name = name;
    }
    for (const auto& s : slots) {
      if (s.tid != tid) continue;
      row.busy_ms = us_to_ms(s.busy_us);
      row.chunks = s.chunks;
      row.steal = std::max(0LL, s.chunks - fair_share);
    }
    row.idle_ms = std::max(0.0, total_ms - row.busy_ms);
    run.thread_rows.push_back(row);
  }
  // Imbalance: max busy / mean busy across workers that executed chunks.
  if (workers >= 2 && sum_busy > 0) {
    run.imbalance = static_cast<double>(max_busy) * static_cast<double>(workers) /
                    static_cast<double>(sum_busy);
  }
  run.trace_dropped = rec.dropped();
  return run;
}

// ---------------------------------------------------------------------------
// Record assembly

void RunReport::add_run(const RunDeterministic& slice, RunMeasured row) {
  if (runs.empty()) {
    det = slice;
  } else {
    // §8 contract: the deterministic slice agrees exactly across thread
    // counts. A divergence is a determinism bug, not noise.
    DiffResult d;
    d.exact_tree("", "", deterministic_object(det), deterministic_object(slice));
    if (!d.findings.empty()) {
      throw std::runtime_error("deterministic slice diverged between " +
                               std::to_string(runs.front().threads) + "t and " +
                               std::to_string(row.threads) + "t runs: " +
                               d.findings.front().field + ": " + d.findings.front().detail);
    }
  }
  const auto at = std::upper_bound(
      runs.begin(), runs.end(), row.threads,
      [](int threads, const RunMeasured& r) { return threads < r.threads; });
  runs.insert(at, std::move(row));

  // The Amdahl serial fraction is measured where it is well-defined: the
  // 1-thread row (all self-time on one thread). Fall back to the smallest
  // thread count when no 1-thread row was requested.
  const auto one = std::find_if(runs.begin(), runs.end(),
                                [](const RunMeasured& r) { return r.threads == 1; });
  const double s1 = (one != runs.end() ? *one : runs.front()).serial_fraction;
  const double t1_ms = one != runs.end() ? one->total_ms : 0.0;
  for (RunMeasured& r : runs) {
    r.predicted_max_speedup = amdahl_speedup(s1, r.threads);
    r.measured_speedup = t1_ms > 0 && r.total_ms > 0 ? t1_ms / r.total_ms : 0.0;
  }
}

// ---------------------------------------------------------------------------
// JSON

std::string RunReport::deterministic_json() const {
  return jsonmini::render_json(deterministic_object(det));
}

std::string RunReport::to_json() const {
  RunRecord rec{det.pipeline, deterministic_object(det), {}};
  for (const RunMeasured& r : runs) rec.measured.push_back(measured_object(r));
  RunDocument doc{run_metadata(git_commit, timestamp, "profile", hardware_threads, reps), {}};
  doc.records.push_back(std::move(rec));
  return doc.to_json();
}

// ---------------------------------------------------------------------------
// Markdown

std::string RunReport::to_markdown() const {
  std::ostringstream os;
  os << "# PERF — observed-run report\n\n";
  os << "Generated by `lad profile`; do not edit by hand. Timings are measured\n"
        "on the build machine; every other field is deterministic and must be\n"
        "byte-identical across reruns and thread counts (DESIGN.md §13).\n\n";
  os << "- pipeline: `" << det.pipeline << "`\n";
  os << "- source: `" << det.source << "` (n=" << det.n << ", m=" << det.m << ", digest `"
     << det.graph_digest << "`)\n";
  os << "- seed: " << det.seed << " · reps: " << reps << "\n";
  os << "- verify: " << (det.verify_ok ? "ok" : "FAILED") << " · output digest: `"
     << det.output_digest << "` · decode rounds: " << det.decode_rounds << "\n";
  os << "- advice bits: " << det.advice_bits << " · engine messages: " << det.engine_messages
     << " (" << det.engine_message_bits << " bits)\n\n";

  os << "## Amdahl summary\n\n";
  os << "| threads | total_ms | imbalance | serial_ms | compute_ms | serial_fraction | "
        "predicted_max_speedup | measured_speedup |\n";
  os << "|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunMeasured& r : runs) {
    os << "| " << r.threads << " | " << fmt3(r.total_ms) << " | " << fmt2(r.imbalance) << " | "
       << fmt3(r.serial_ms) << " | " << fmt3(r.compute_ms) << " | " << fmt3(r.serial_fraction)
       << " | " << fmt3(r.predicted_max_speedup) << " | " << fmt3(r.measured_speedup) << " |\n";
  }
  os << "\n## Phase allocations\n\n";
  os << "| phase | allocs | alloc_bytes |\n";
  os << "|---|---:|---:|\n";
  for (const PhaseAlloc& a : det.phases) {
    os << "| " << a.phase << " | " << a.allocs << " | " << a.alloc_bytes << " |\n";
  }
  os << "\n## Deterministic round series\n\n";
  os << "| round | messages | bytes | faults | repairs | allocs | alloc_bytes |\n";
  os << "|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RoundDelta& r : det.rounds) {
    os << "| " << r.round << " | " << r.messages << " | " << r.bytes << " | " << r.faults
       << " | " << r.repairs << " | " << r.allocs << " | " << r.alloc_bytes << " |\n";
  }

  for (const RunMeasured& r : runs) {
    os << "\n## At " << r.threads << " thread" << (r.threads == 1 ? "" : "s") << "\n\n";
    os << "- total wall: " << fmt3(r.total_ms) << " ms (min of " << reps
       << ") · trace: " << r.trace_events << " events, " << r.trace_dropped
       << " dropped · flight samples overwritten: " << r.flight_dropped << "\n\n";

    os << "### Top time sinks\n\n";
    const std::size_t top = std::min<std::size_t>(3, r.phases.size());
    for (std::size_t i = 0; i < top; ++i) {
      const PhaseTime& p = r.phases[i];
      os << (i + 1) << ". **" << p.phase << "** — " << fmt3(p.self_ms) << " ms self ("
         << fmt1(p.pct) << "%), " << p.spans << " spans\n";
    }
    if (top == 0) os << "(no spans recorded)\n";

    os << "\n### Phase totals\n\n";
    os << "| phase | self_ms | % | spans |\n";
    os << "|---|---:|---:|---:|\n";
    for (const PhaseTime& p : r.phases) {
      os << "| " << p.phase << " | " << fmt3(p.self_ms) << " | " << fmt1(p.pct) << " | "
         << p.spans << " |\n";
    }

    os << "\n### Cost centers (phase × thread)\n\n";
    os << "| rank | phase | tid | thread | self_ms | spans |\n";
    os << "|---:|---|---:|---|---:|---:|\n";
    const auto name_of = [&r](int tid) -> std::string {
      for (const auto& t : r.thread_rows) {
        if (t.tid == tid && !t.name.empty()) return t.name;
      }
      return "-";
    };
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
      const CostCell& c = r.cells[i];
      os << "| " << (i + 1) << " | " << c.phase << " | " << c.tid << " | " << name_of(c.tid)
         << " | " << fmt3(c.self_ms) << " | " << c.spans << " |\n";
    }

    os << "\n### Threads\n\n";
    os << "| tid | name | busy_ms | idle_ms | chunks | steal |\n";
    os << "|---:|---|---:|---:|---:|---:|\n";
    for (const ThreadRow& t : r.thread_rows) {
      os << "| " << t.tid << " | " << (t.name.empty() ? "-" : t.name) << " | "
         << fmt3(t.busy_ms) << " | " << fmt3(t.idle_ms) << " | " << t.chunks << " | " << t.steal
         << " |\n";
    }

    os << "\n### Measured rounds\n\n";
    os << "| round | wall_ms | dispatch_us | queue_us | wait_us | max_wait_us | workers | "
          "imbalance | critical_tid |\n";
    os << "|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const RoundWait& w : r.rounds) {
      os << "| " << w.round << " | " << fmt3(w.wall_ms) << " | " << fmt1(w.dispatch_us)
         << " | " << fmt1(w.queue_us) << " | " << fmt1(w.wait_us) << " | "
         << fmt1(w.max_wait_us) << " | " << w.workers << " | " << fmt3(w.imbalance) << " | "
         << w.critical_tid << " |\n";
    }
  }
  return os.str();
}

}  // namespace lad::obs
