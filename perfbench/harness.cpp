// Benchmark harness: runs one workload of encode -> decode -> verify -> echo
// stacks (or fault campaigns) through the library's public API and writes
// one raw JSON record of every measurement. run.py builds this binary,
// turns the record into the end-to-end and per-layer metrics, and applies
// the correctness gate (pinned digests, serial-vs-pool identity).
//
//   lad_perfbench --workload W --seed S --seconds T --trace 0|1
//                 --workdir DIR --out FILE [--tiny]
//
// A run: repeated timed set-ups (generate, .ladg round trip, CSR build),
// one untimed serial warm-up pass that fixes the reference fingerprints,
// then untraced passes until T seconds have elapsed (at least three). With
// --trace 1 it adds one traced pass (telemetry on, spans kept in memory)
// and the graph-kernel probes, and writes the Chrome trace next to FILE.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/checkers.hpp"
#include "graph/components.hpp"
#include "graph/distance.hpp"
#include "graph/distance_coloring.hpp"
#include "graph/euler.hpp"
#include "graph/io.hpp"
#include "graph/source.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/version.hpp"
#include "util/hashing.hpp"
#include "util/thread_pool.hpp"

namespace {

using lad::Graph;
using lad::Pipeline;
using lad::PipelineConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds of one call of `fn`.
double timed(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Workloads

/// One item of a workload: a pipeline stack on a GraphSource family spec,
/// or (trials > 0) a fault campaign with a fault-free reference stack on
/// the campaign's own graph.
struct ItemDef {
  std::string pipeline;
  std::string spec;  // stack items: GraphSource spec without "@seed"
  lad::faults::GraphFamily family = lad::faults::GraphFamily::kCycle;
  int n = 0;
  int trials = 0;

  bool campaign() const { return trials > 0; }
};

struct WorkloadDef {
  std::string name;
  bool pooled = false;  // passes run on a ThreadPool of min(nproc, 4)
  std::vector<ItemDef> items;
};

ItemDef stack_item(const char* pipeline, const char* spec) {
  ItemDef d;
  d.pipeline = pipeline;
  d.spec = spec;
  return d;
}

ItemDef campaign_item(const char* pipeline, lad::faults::GraphFamily family, int n, int trials) {
  ItemDef d;
  d.pipeline = pipeline;
  d.family = family;
  d.n = n;
  d.trials = trials;
  return d;
}

/// The four workloads; `tiny` swaps in seconds-long sizes for the self-test.
std::optional<WorkloadDef> find_workload(const std::string& name, bool tiny) {
  using lad::faults::GraphFamily;
  WorkloadDef w;
  w.name = name;
  if (name == "stack-linear" || name == "stack-linear-mt") {
    w.pooled = name == "stack-linear-mt";
    w.items.push_back(stack_item("orientation", tiny ? "cycle:4096" : "cycle:262144"));
    w.items.push_back(stack_item("decompress", tiny ? "torus:32x32" : "torus:256x256"));
    w.items.push_back(stack_item("splitting", tiny ? "torus:16x16" : "torus:128x128"));
  } else if (name == "stack-ball") {
    w.items.push_back(stack_item("three_coloring", tiny ? "grid:16x16" : "grid:96x96"));
    w.items.push_back(stack_item("subexp_lcl", tiny ? "grid:12x12" : "grid:32x32"));
    w.items.push_back(stack_item("delta_coloring", tiny ? "torus:16x16" : "torus:128x128"));
  } else if (name == "campaign-faulted") {
    const int n = tiny ? 256 : 4096;
    w.items.push_back(campaign_item("orientation", GraphFamily::kCycle, n, tiny ? 2 : 10));
    w.items.push_back(campaign_item("decompress", GraphFamily::kTorus, n, tiny ? 2 : 6));
    w.items.push_back(campaign_item("three_coloring", GraphFamily::kGrid, n, tiny ? 2 : 4));
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Set-up: generate, write .ladg, mmap-load it back, rebuild the CSR, and
// check that every copy has the generated graph's digest.

struct SetupTimes {
  double gen_s = 0, write_s = 0, read_s = 0, build_s = 0;
};

struct LoadedItem {
  Graph graph;
  std::string spec;          // canonical spec (seed resolved)
  std::string graph_digest;  // graph_digest_hex
};

LoadedItem setup_item(const ItemDef& item, std::uint64_t seed, const std::string& ladg_path,
                      lad::ThreadPool* pool, SetupTimes& t) {
  LoadedItem out;
  Graph generated;
  t.gen_s += timed([&] {
    if (item.campaign()) {
      lad::faults::GraphFamily fam = item.family;
      generated = lad::faults::build_campaign_graph(lad::find_pipeline(item.pipeline)->id(),
                                                    fam, item.n);
      out.spec = std::string("campaign:") + lad::faults::to_string(fam) + ":" +
                 std::to_string(item.n) + "/trials=" + std::to_string(item.trials) +
                 "/seed=" + std::to_string(seed);
      out.graph_digest = lad::graph_digest_hex(generated);
    } else {
      std::string err;
      auto lg = lad::load_graph_source(item.spec + "@" + std::to_string(seed), &err, seed);
      if (!lg) throw std::runtime_error("bad graph spec: " + err);
      generated = std::move(lg->graph);
      out.spec = lg->spec;
      out.graph_digest = lg->digest;
    }
  });
  t.write_s += timed([&] { lad::write_ladg(ladg_path, generated); });
  Graph loaded;
  t.read_s += timed([&] { loaded = lad::read_ladg(ladg_path); });
  std::remove(ladg_path.c_str());
  t.build_s += timed([&] {
    Graph::Builder b;
    b.reserve(static_cast<std::size_t>(loaded.n()), static_cast<std::size_t>(loaded.m()));
    for (const lad::NodeId id : loaded.raw_ids()) b.add_node(id);
    const auto eu = loaded.raw_edge_u();
    const auto ev = loaded.raw_edge_v();
    for (std::size_t e = 0; e < eu.size(); ++e) b.add_edge(eu[e], ev[e]);
    out.graph = std::move(b).build(pool);
  });
  if (lad::graph_digest_hex(loaded) != out.graph_digest ||
      lad::graph_digest_hex(out.graph) != out.graph_digest) {
    throw std::runtime_error("graph digest changed across the .ladg round trip / CSR build: " +
                             out.spec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Passes

struct ItemRun {
  double encode_s = 0, decode_s = 0, verify_s = 0, digests_s = 0, echo_s = 0, campaign_s = 0;
  long long nodes = 0;  // stack n, plus trials x n for campaigns
  int n = 0;
  int rounds = 0;
  lad::AdviceStats stats;
  std::string fingerprint;
  std::string error;  // empty = item passed
  lad::faults::CampaignSummary campaign;
};

struct PassRun {
  double wall_s = 0;
  std::vector<ItemRun> items;
};

/// Runs one item. The `bench.item` span covers only the library calls, so
/// the traced pass's serial split does not count the harness's own
/// bookkeeping (fingerprinting, report rendering) as program time.
ItemRun run_item(const ItemDef& def, const LoadedItem& li, std::uint64_t seed,
                 lad::ThreadPool* pool) {
  ItemRun r;
  const Graph& g = li.graph;
  r.n = g.n();
  try {
    const Pipeline& p = *lad::find_pipeline(def.pipeline);
    PipelineConfig cfg = p.sweep_config(g.n());
    cfg.seed = seed;
    lad::PipelineAdvice adv;
    lad::PipelineOutput out;
    bool ok = false;
    std::vector<std::string> digests;
    lad::faults::EchoResult echo;
    {
      lad::obs::Span item_span("bench.item/" + def.pipeline, "bench");
      r.encode_s = timed([&] { adv = p.encode(g, cfg); });
      r.decode_s = timed([&] { out = p.decode(g, adv, cfg); });
      r.verify_s = timed([&] { ok = p.verify(g, out, cfg); });
      r.digests_s = timed([&] {
        lad::obs::Span span("bench.node_digests", "bench");
        digests = p.node_digests(g, out);
      });
      r.echo_s = timed([&] {
        lad::obs::Span span("bench.echo", "bench");
        echo = lad::faults::run_verification_echo(g, digests, /*echo_rounds=*/3, nullptr, pool);
      });
      if (def.campaign()) {
        lad::faults::CampaignConfig cc;
        cc.decoder = p.id();
        cc.family = def.family;
        cc.n = def.n;
        cc.trials = def.trials;
        cc.seed = seed;
        cc.threads = 1;
        r.campaign_s = timed([&] {
          lad::obs::Span span("bench.campaign/" + def.pipeline, "bench");
          r.campaign = lad::faults::run_fault_campaign(cc);
        });
      }
    }
    r.nodes = g.n() + static_cast<long long>(def.trials) * r.campaign.n;
    r.stats = adv.stats(g.n());
    r.rounds = out.rounds;
    // The fingerprint covers the node digests and the echo's traffic, so a
    // pooled message plane that changes messages, bytes or rounds fails
    // the serial-vs-pool check too.
    std::vector<std::string> parts = std::move(digests);
    parts.push_back("echo " + std::to_string(echo.messages) + " " + std::to_string(echo.bytes) +
                    " " + std::to_string(echo.rounds));
    if (!ok) r.error = "verify failed";
    if (r.error.empty() && !echo.unverified_nodes.empty()) {
      r.error = std::to_string(echo.unverified_nodes.size()) + " nodes unverified by the echo";
    }
    if (def.campaign()) {
      parts.push_back(r.campaign.to_string());
      for (const auto& rep : r.campaign.reports) parts.push_back(rep.to_string());
      // Passes are kept until the run ends; the per-trial reports would
      // make peak RSS grow with the number of passes.
      r.campaign.reports = {};
      if (r.error.empty() && r.campaign.silent_corruptions > 0) {
        r.error = std::to_string(r.campaign.silent_corruptions) + " silent corruptions";
      }
    }
    r.fingerprint = lad::obs::fingerprint_hex(parts);
  } catch (const std::exception& e) {
    r.error = std::string("exception: ") + e.what();
  }
  return r;
}

PassRun run_pass(const WorkloadDef& w, const std::vector<LoadedItem>& loaded, std::uint64_t seed,
                 lad::ThreadPool* pool) {
  PassRun pr;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    pr.items.push_back(run_item(w.items[i], loaded[i], seed, pool));
    const ItemRun& r = pr.items.back();
    pr.wall_s += r.encode_s + r.decode_s + r.verify_s + r.digests_s + r.echo_s + r.campaign_s;
  }
  return pr;
}

// ---------------------------------------------------------------------------
// Traced run: self times of the existing spans, and the kernel probes.

struct SpanTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
};

SpanTotals span_totals() {
  SpanTotals out;
  struct Frame {
    const std::string* name;
    std::uint64_t begin_us;
    long long child_us;
  };
  for (const auto& [tid, events] : lad::obs::TraceRecorder::instance().events_by_thread()) {
    std::vector<Frame> stack;
    for (const auto& ev : events) {
      if (ev.phase == 'B') {
        stack.push_back({&ev.name, ev.ts_us, 0});
        continue;
      }
      if (ev.phase != 'E' || stack.empty()) continue;
      const Frame f = stack.back();
      stack.pop_back();
      const auto total_us = static_cast<long long>(ev.ts_us - f.begin_us);
      out.self_ms[*f.name] += static_cast<double>(std::max(0LL, total_us - f.child_us)) / 1e3;
      out.total_ms[*f.name] += static_cast<double>(total_us) / 1e3;
      if (!stack.empty()) stack.back().child_us += total_us;
    }
  }
  return out;
}

/// Graph-kernel probes at 256 hashed centers per item graph, at the radius
/// the item's decoder charged (capped: subexp_lcl charges ~10⁶ rounds),
/// plus the whole-graph kernels once per graph.
void probe_kernels(const WorkloadDef& w, const std::vector<LoadedItem>& loaded,
                   const PassRun& reference, std::uint64_t seed,
                   std::map<std::string, double>& m) {
  constexpr int kCenters = 256;
  constexpr int kMaxRadius = 128;
  double ball_s = 0, bfs_s = 0, dist_s = 0, mask_s = 0;
  long long members = 0, calls = 0;
  double components_s = 0, coloring_s = 0, bipartite_s = 0, euler_s = 0;
  volatile long long sink = 0;  // keeps the probe results observable
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const Graph& g = loaded[i].graph;
    const int radius = std::clamp(reference.items[i].rounds, 1, kMaxRadius);
    lad::Components comps;
    components_s += timed([&] { comps = lad::connected_components(g); });
    bipartite_s += timed([&] { sink = sink + (lad::is_bipartite(g) ? 1 : 0); });
    euler_s += timed([&] { sink = sink + static_cast<long long>(lad::euler_partition(g).size()); });
    if (w.items[i].pipeline == "subexp_lcl") {
      const PipelineConfig cfg = lad::find_pipeline("subexp_lcl")->sweep_config(g.n());
      const int d = cfg.subexp.sep_mult * cfg.subexp.x;
      coloring_s += timed([&] { sink = sink + lad::num_colors(lad::distance_coloring(g, d)); });
    }
    for (int k = 0; k < kCenters; ++k) {
      const std::uint64_t h = lad::hash3(seed, i, static_cast<std::uint64_t>(k));
      const int c = static_cast<int>(h % static_cast<std::uint64_t>(g.n()));
      std::vector<int> ball;
      ball_s += timed([&] { ball = lad::ball_nodes(g, c, radius); });
      members += static_cast<long long>(ball.size());
      bfs_s += timed([&] { sink = sink + lad::bfs_distances(g, c, {}, radius).back(); });
      const int other = ball[static_cast<std::size_t>(lad::splitmix64(h) % ball.size())];
      dist_s += timed([&] { sink = sink + lad::distance(g, c, other); });
      mask_s += timed([&] {
        sink = sink + lad::component_mask(g, comps, comps.comp_of[static_cast<std::size_t>(c)])
                          .front();
      });
      ++calls;
    }
  }
  const double per_call_us = 1e6 / static_cast<double>(std::max(1LL, calls));
  m["graph.ball_us"] = ball_s * per_call_us;
  m["graph.ball_ns_per_member"] = ball_s * 1e9 / static_cast<double>(std::max(1LL, members));
  m["graph.bfs_capped_us"] = bfs_s * per_call_us;
  m["graph.distance_us"] = dist_s * per_call_us;
  m["graph.component_mask_us"] = mask_s * per_call_us;
  m["graph.components_ms"] = components_s * 1e3;
  m["graph.distance_coloring_ms"] = coloring_s * 1e3;
  m["graph.is_bipartite_ms"] = bipartite_s * 1e3;
  m["graph.euler_ms"] = euler_s * 1e3;
}

/// Per-layer metrics of one traced pass (telemetry was on for exactly this
/// pass; the registry and the span buffers were reset right before it).
void layer_metrics(const PassRun& traced, const WorkloadDef& w, double untraced_wall_s,
                   std::map<std::string, double>& m) {
  for (const Pipeline* p : lad::pipelines()) {
    for (const char* stage : {"encode", "decode", "verify", "digests"}) {
      m[std::string("core.") + p->name() + "." + stage + "_ms"] = 0;
    }
    m[std::string("advice.") + p->name() + ".bits_per_node"] = 0;
    m[std::string("advice.") + p->name() + ".ones_ratio"] = 0;
  }
  double echo_s = 0;
  lad::faults::CampaignSummary camp;
  double trials = 0;
  for (std::size_t i = 0; i < traced.items.size(); ++i) {
    const ItemRun& r = traced.items[i];
    const std::string core = "core." + w.items[i].pipeline + ".";
    m[core + "encode_ms"] += r.encode_s * 1e3;
    m[core + "decode_ms"] += r.decode_s * 1e3;
    m[core + "verify_ms"] += r.verify_s * 1e3;
    m[core + "digests_ms"] += r.digests_s * 1e3;
    const std::string adv = "advice." + w.items[i].pipeline + ".";
    m[adv + "bits_per_node"] =
        static_cast<double>(r.stats.total_bits) / static_cast<double>(std::max(1, r.n));
    m[adv + "ones_ratio"] = r.stats.ones_ratio;
    echo_s += r.echo_s;
    camp.total_detected += r.campaign.total_detected;
    camp.total_repaired_nodes += r.campaign.total_repaired_nodes;
    camp.total_repair_retries += r.campaign.total_repair_retries;
    camp.total_flagged_nodes += r.campaign.total_flagged_nodes;
    camp.silent_corruptions += r.campaign.silent_corruptions;
    trials += r.campaign.trials;
  }
  auto& c = lad::obs::core();
  m["advice.bits_written"] = static_cast<double>(c.advice_bits_written.value());
  m["advice.bits_read"] = static_cast<double>(c.advice_bits_read.value());

  const SpanTotals spans = span_totals();
  const auto self = [&](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second;
  };
  m["local.echo_ms"] = echo_s * 1e3;
  m["local.setup_ms"] = self("engine.run");
  m["local.compute_ms"] = self("engine.compute");
  m["local.deliver_ms"] = self("engine.deliver");
  m["local.faults_ms"] = self("engine.faults");
  m["local.messages"] = static_cast<double>(c.engine_messages.value());
  m["local.bytes"] = static_cast<double>(c.engine_message_bits.value()) / 8.0;
  m["local.rounds"] = static_cast<double>(c.engine_rounds.value());
  m["local.msgbuf_allocs"] = static_cast<double>(c.alloc_msgbuf.value());
  m["local.msgbuf_alloc_bytes"] = static_cast<double>(c.alloc_msgbuf_bytes.value());

  m["util.pool_dispatch_us"] = static_cast<double>(c.pool_dispatch_us.value());
  m["util.pool_queue_us"] = static_cast<double>(c.pool_queue_us.value());
  m["util.pool_barrier_wait_us"] = static_cast<double>(c.pool_barrier_wait_us.value());
  m["util.pool_chunks"] = static_cast<double>(c.pool_chunks.value());
  m["util.serial_fraction"] = lad::obs::serial_split_from_trace().serial_fraction;

  const auto trial_it = spans.total_ms.find("campaign.trial");
  m["faults.trial_ms"] =
      trial_it == spans.total_ms.end() ? 0.0 : trial_it->second / std::max(1.0, trials);
  m["faults.detections"] = static_cast<double>(camp.total_detected);
  m["faults.repaired_nodes"] = static_cast<double>(camp.total_repaired_nodes);
  m["faults.repair_retries"] = static_cast<double>(camp.total_repair_retries);
  m["faults.flagged_nodes"] = static_cast<double>(camp.total_flagged_nodes);
  m["faults.silent_corruptions"] = camp.silent_corruptions;
  m["faults.repair_yield"] =
      camp.total_detected > 0 ? static_cast<double>(camp.total_repaired_nodes) /
                                    static_cast<double>(camp.total_detected)
                              : 0.0;
  m["faults.engine_dropped"] = static_cast<double>(c.engine_messages_dropped.value());
  m["faults.engine_delayed"] = static_cast<double>(c.engine_messages_delayed.value());
  m["faults.engine_duplicated"] = static_cast<double>(c.engine_messages_duplicated.value());

  m["obs.trace_overhead_frac"] = traced.wall_s / untraced_wall_s - 1.0;
}

// ---------------------------------------------------------------------------
// Output

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_pass(std::ostream& os, const PassRun& pr) {
  os << "{\"wall_s\": " << num(pr.wall_s) << ", \"items\": [";
  for (std::size_t i = 0; i < pr.items.size(); ++i) {
    const ItemRun& r = pr.items[i];
    os << (i ? ", " : "") << "{\"encode_s\": " << num(r.encode_s)
       << ", \"decode_s\": " << num(r.decode_s) << ", \"verify_s\": " << num(r.verify_s)
       << ", \"digests_s\": " << num(r.digests_s) << ", \"echo_s\": " << num(r.echo_s)
       << ", \"campaign_s\": " << num(r.campaign_s) << ", \"nodes\": " << r.nodes
       << ", \"n\": " << r.n << ", \"advice_bits\": " << r.stats.total_bits
       << ", \"rounds\": " << r.rounds << ", \"fingerprint\": " << json_str(r.fingerprint)
       << ", \"error\": " << json_str(r.error) << "}";
  }
  os << "]}";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return lad::ThreadPool::default_threads();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: lad_perfbench --workload W --seed S --seconds T --trace 0|1 "
               "--workdir DIR --out FILE [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, workdir, out_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--workdir" && has_value) {
      workdir = argv[++i];
    } else if (a == "--out" && has_value) {
      out_path = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      return usage();
    }
  }
  const auto workload = find_workload(workload_name, tiny);
  if (!workload || workdir.empty() || out_path.empty()) return usage();
  const WorkloadDef& w = *workload;

  LAD_TM_THREAD_NAME("lad-main");
  const int pool_threads = w.pooled ? std::min(nproc(), 4) : 1;
  lad::ThreadPool pool(pool_threads);
  lad::ThreadPool* pass_pool = w.pooled ? &pool : nullptr;

  // Set-up, repeated: at least three times and for at least one second, so
  // cheap set-ups still give a steady median.
  std::vector<SetupTimes> setups;
  std::vector<LoadedItem> loaded;
  const auto setup_t0 = Clock::now();
  while (setups.size() < 3 || (seconds_since(setup_t0) < 1.0 && setups.size() < 25)) {
    SetupTimes t;
    std::vector<LoadedItem> round;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      const std::string path = workdir + "/" + w.name + "-" + std::to_string(i) + ".ladg";
      round.push_back(setup_item(w.items[i], seed, path, pass_pool, t));
    }
    setups.push_back(t);
    loaded = std::move(round);
  }

  // Serial warm-up pass: the reference every timed pass must reproduce
  // byte for byte (on stack-linear-mt it is the 1-thread run of the same
  // work).
  const PassRun reference = run_pass(w, loaded, seed, nullptr);
  std::vector<PassRun> passes;
  const auto measure_t0 = Clock::now();
  while (passes.size() < 3 || seconds_since(measure_t0) < seconds) {
    passes.push_back(run_pass(w, loaded, seed, pass_pool));
  }
  const double rss_mb = peak_rss_mb();

  std::map<std::string, double> layers;
  std::optional<PassRun> traced;
  if (trace) {
    std::vector<double> walls;
    for (const auto& p : passes) walls.push_back(p.wall_s);
    std::sort(walls.begin(), walls.end());
    const double median_wall = walls[walls.size() / 2];

    lad::obs::set_enabled(true);
    lad::obs::MetricsRegistry::instance().reset();
    lad::obs::TraceRecorder::instance().clear();
    traced = run_pass(w, loaded, seed, pass_pool);
    lad::obs::set_enabled(false);
    layer_metrics(*traced, w, median_wall, layers);
    std::ofstream(out_path + ".trace.json") << lad::obs::TraceRecorder::instance().to_chrome_json();
    lad::obs::TraceRecorder::instance().clear();
    probe_kernels(w, loaded, reference, seed, layers);
  }

  std::ostringstream os;
  os << "{\n\"workload\": " << json_str(w.name) << ",\n\"seed\": " << seed
     << ",\n\"tiny\": " << (tiny ? "true" : "false") << ",\n\"provenance\": {\"nproc\": "
     << nproc() << ", \"hardware_threads\": " << lad::ThreadPool::default_threads()
     << ", \"pool_threads\": " << pool_threads
     << ", \"git_commit\": " << json_str(lad::obs::kGitCommit)
     << ", \"build_type\": " << json_str(LAD_PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_str(LAD_PERFBENCH_COMPILER) << "},\n\"items\": [";
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    os << (i ? ", " : "") << "{\"pipeline\": " << json_str(w.items[i].pipeline)
       << ", \"spec\": " << json_str(loaded[i].spec)
       << ", \"graph_digest\": " << json_str(loaded[i].graph_digest) << "}";
  }
  os << "],\n\"setups\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    const SetupTimes& t = setups[i];
    os << (i ? ", " : "") << "{\"gen_s\": " << num(t.gen_s) << ", \"write_s\": " << num(t.write_s)
       << ", \"read_s\": " << num(t.read_s) << ", \"build_s\": " << num(t.build_s) << "}";
  }
  os << "],\n\"reference\": ";
  write_pass(os, reference);
  os << ",\n\"passes\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    os << (i ? ",\n  " : "");
    write_pass(os, passes[i]);
  }
  os << "],\n\"peak_rss_mb\": " << num(rss_mb);
  if (traced) {
    os << ",\n\"traced\": ";
    write_pass(os, *traced);
    os << ",\n\"layers\": {";
    bool first = true;
    for (const auto& [name, value] : layers) {
      os << (first ? "" : ", ") << json_str(name) << ": " << num(value);
      first = false;
    }
    os << "}";
  }
  os << "\n}\n";
  std::ofstream out(out_path);
  out << os.str();
  return out.good() ? 0 : 1;
}
