// lad — command-line front end for the local-advice library.
//
// Usage:
//   lad gen      <source> [--out g.ladg|g.txt]   # graph generation
//   lad audit    <source> <alg>       # locality-conformance audit
//   lad faultsim <decoder> <family> <n> [trials] [seed] [--flags]  # fault campaign
//   lad chaos    [--pipelines ...] [--models ...] [--policies ...]  # chaos matrix
//   lad bench    <suite> | --graph SPEC[,SPEC...] [--pipeline P]
//                [--threads K] [--reps K] [--json out.json] [--trace]
//   lad profile  <pipeline> [--graph SPEC] [--threads K[,K...]] [--reps R]
//                [--json f] [--out f.md] [--chrome f] [--jsonl f] [--metrics f]
//                                     # DESIGN.md §13 observed run
//   lad diff     <baseline.json> <candidate.json> [--tol-ms X] [--tol-rel R] [--json]
//   lad verify-claims [--family F] [--graphs SPEC,...] [--json]   # DESIGN.md §9.6
//   lad report   [--out EXPERIMENTS-generated.md]   # regenerable claims report
//   lad lint     [--root DIR] [--rule R] [--baseline FILE] [--json]   # static analysis
//   lad dot      <source>             # Graphviz export
//
// Exit-code convention, uniform across verbs (pinned by cli_exit_codes):
//   0 — success / the checked property holds
//   2 — usage error or inadmissible input, naming the requirement
//   3 — soft failure: the property checked does not hold (audit violation,
//       claim FAIL, silent corruption, digest drift, new lint findings)
//   4 — hard failure: internal error, contract violation, unlexable source
//
// Decoder-facing commands (audit, faultsim) dispatch through the Pipeline
// registry (core/pipeline.hpp): any pipeline name the registry knows is a
// valid argument, with no per-decoder switch here.
//
// Graph inputs are GraphSource specs (graph/source.hpp): a generator spec
// "family:params[@seed]" (cycle:1000, torus:32x32@7), a binary ".ladg"
// file (graph/io.hpp §12 format), or a ".txt" edge list, on every verb that
// reads a graph. An unknown source exits 2 naming the offender.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cole_vishkin.hpp"
#include "bench/bench_runner.hpp"
#include "core/decompress.hpp"
#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "faults/chaos.hpp"
#include "graph/checkers.hpp"
#include "graph/distance.hpp"
#include "graph/io.hpp"
#include "graph/source.hpp"
#include "lint/lint.hpp"
#include "local/audit.hpp"
#include "local/engine.hpp"
#include "obs/claims.hpp"
#include "obs/diff.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lad;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lad gen <source> [--out FILE]   # FILE ending in .ladg writes the\n"
               "          binary format of graph/io.hpp, anything else (or stdout) the\n"
               "          text edge list. Sources: family:params[@seed]\n"
               "          (cycle:1000000, torus:32x32@7, ...), a .ladg file, or a .txt\n"
               "          edge list; twocycles:N1xN2 is the audit-friendly disjoint union\n"
               "  lad audit <source> gather [radius]      # engine provenance stats\n"
               "  lad audit <source> cv                   # Cole-Vishkin under the auditor\n"
               "  lad audit <source> <pipeline>           # decoder locality audit; any\n"
               "            registry pipeline name (orientation, splitting, three_coloring,\n"
               "            delta_coloring, subexp_lcl, decompress)\n"
               "  lad faultsim <pipeline> <cycle|grid|torus> <n> [trials] [seed]\n"
               "            [--crash-recovery K] [--dup P] [--delay P] [--max-delay K]\n"
               "            [--targeting uniform|high_degree|region_boundary]\n"
               "            [--burst K] [--burst-radius R]\n"
               "            [--policy strict|backoff|budgeted]\n"
               "  lad chaos [--pipelines p1,p2,...] [--families f1,f2,...]\n"
               "            [--models mixed,adversarial,churn] [--rates 50,100,...]\n"
               "            [--policies strict,backoff,budgeted] [-n N] [--trials T]\n"
               "            [--seed S] [--threads K] [--out FILE] [--json FILE]\n"
               "            cross-product fault campaign; every cell must end with zero\n"
               "            silent corruptions and all nodes accounted in a DegradeStatus\n"
               "            bucket; writes byte-deterministic markdown (default out:\n"
               "            ROBUSTNESS-generated.md); exit 0 pass, 3 any cell fails\n"
               "  lad bench <suite> | --graph SPEC[,SPEC...] [--pipeline <name>]\n"
               "            [--threads K[,K...]] [--reps K] [--json out.json] [--trace]\n"
               "            suites: e1..e9 r1 b1 a1 (the EXPERIMENTS.md rows; all runs\n"
               "            them) gather scale smoke; --graph benches one pipeline\n"
               "            (default orientation) per graph source, with the multi-thread\n"
               "            re-run rebuilding the CSR in parallel; --trace embeds per-case\n"
               "            telemetry counters in the JSON; --reps K times each case as\n"
               "            min-of-K after one warmup; a comma list --threads 1,2,4 times\n"
               "            each case at every count; exit 3 if a thread count changes\n"
               "            an output, 2 if a pipeline rejects a --graph source, 4 if a\n"
               "            case breaks a contract (error rows are still written)\n"
               "  lad profile <pipeline> [--graph SPEC] [--threads K[,K...]] [--reps R]\n"
               "            [--seed S] [--json FILE] [--out FILE] [--chrome FILE]\n"
               "            [--jsonl FILE] [--metrics FILE]\n"
               "            observed run (DESIGN.md §13): encode -> decode -> verify ->\n"
               "            verification echo with telemetry on, once per thread count\n"
               "            (pooled echo above 1); prints the Amdahl summary, the per-round\n"
               "            series, and the phase x thread cost centers. --json writes the\n"
               "            run record, whose \"deterministic\" object is byte-identical\n"
               "            across reruns and thread counts (exit 4 if a count diverges);\n"
               "            --chrome/--jsonl/--metrics export the last rep as a Chrome trace\n"
               "            (with per-round counter lanes), JSONL events, or Prometheus text\n"
               "            metrics\n"
               "  lad verify-claims [--family <pipeline>] [--ns n1,n2,...]\n"
               "            [--graphs SPEC,SPEC,SPEC,...] [--seed S] [--json]\n"
               "            runs every registered pipeline (or one family) over an n-sweep\n"
               "            and checks the measured rounds / bits-per-node / ones-ratio\n"
               "            series against the growth classes and bounds its paper theorem\n"
               "            declares (Pipeline::claims); without --ns each pipeline may\n"
               "            extend the default sweep (Pipeline::sweep_ns); --graphs sweeps\n"
               "            explicit graph sources instead (needs --family and >= 3\n"
               "            sources); exit 0 = all claims hold\n"
               "  lad diff <baseline.json> <candidate.json> [--tol-ms X] [--tol-rel R]\n"
               "            [--json]   structural diff of two run documents (bench or\n"
               "            profile): the suite, the record names and every deterministic\n"
               "            leaf exactly, wall time per shared thread count with tolerance;\n"
               "            exit 0 clean, 3 timing regression, 4 structural mismatch\n"
               "  lad report [--out FILE] [--ns n1,n2,...] [--seed S]\n"
               "            regenerates the claims-conformance report (markdown) from the\n"
               "            real encode/decode/verify stack; default out:\n"
               "            EXPERIMENTS-generated.md\n"
               "  lad lint [--root DIR] [--rule R]... [--baseline FILE]\n"
               "            [--write-baseline FILE] [--list-rules] [--json]\n"
               "            static analysis of src/ and tools/ under --root (default .):\n"
               "            determinism, layering, and telemetry-catalog hygiene rules\n"
               "            (DESIGN.md §10); default baseline ROOT/lint_baseline.json when\n"
               "            present; exit 0 clean, 3 new findings, 4 unlexable source\n"
               "  lad dot <source>\n"
               "exit codes: 0 ok | 2 usage error or inadmissible input, naming the\n"
               "            requirement | 3 checked property fails | 4 internal\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Whole-token parse of a number: "abc", "12x" and "" fail instead of
// reading as 0 or 12.
template <typename T>
std::optional<T> parse_number(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

// Reads `what`'s value `tok` into `out` when it is a whole-token number in
// [lo, hi]; otherwise names the token on stderr and returns false, and the
// caller exits 2.
template <typename T>
bool read_number(const char* what, const std::string& tok, T& out,
                 T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  const auto v = parse_number<T>(tok);
  if (v && *v >= lo && *v <= hi) {
    out = *v;
    return true;
  }
  std::ostringstream range;
  if (hi != std::numeric_limits<T>::max()) {
    range << " in [" << lo << ", " << hi << "]";
  } else if (lo != std::numeric_limits<T>::lowest()) {
    range << " >= " << lo;
  }
  std::fprintf(stderr, "error: %s '%s' is not a number%s\n", what, tok.c_str(),
               range.str().c_str());
  return false;
}

// A comma list of whole numbers >= lo (`--threads 1,2,4`, `--ns 256,512`).
bool read_number_list(const char* what, const std::string& s, std::vector<int>& out, int lo) {
  std::vector<int> list;
  for (const auto& tok : split_csv(s)) {
    if (!read_number(what, tok, list.emplace_back(), lo)) return false;
  }
  if (list.empty()) {
    std::fprintf(stderr, "error: %s list '%s' is empty\n", what, s.c_str());
    return false;
  }
  out = std::move(list);
  return true;
}

// The unified GraphSource front door for the migrated verbs: parse + load,
// naming the offending spec on stderr. A nullopt return means the caller
// should exit 2 (the error is already printed) — source problems are
// input-document problems, not internal errors.
std::optional<GraphSource> parse_source_or_complain(const std::string& spec) {
  std::string err;
  auto src = parse_graph_source(spec, &err);
  if (!src) std::fprintf(stderr, "error: %s\n", err.c_str());
  return src;
}

std::optional<LoadedGraph> load_source_or_complain(const std::string& spec,
                                                   std::uint64_t seed = 1) {
  const auto src = parse_source_or_complain(spec);
  if (!src) return std::nullopt;
  try {
    return load_graph_source(*src, seed);
  } catch (const GraphIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

// Campaign family tokens (faultsim, chaos) route through the GraphSource
// parser so a bad token names the offender, then narrow to the families
// the fault harness can perturb.
std::optional<faults::GraphFamily> parse_campaign_family(const std::string& tok) {
  const auto src = parse_source_or_complain(tok);
  if (!src) return std::nullopt;
  if (src->kind != GraphSource::Kind::kFamily) {
    std::fprintf(stderr, "error: '%s' is not a campaign family (campaigns generate their "
                         "own instances; expected cycle|grid|torus)\n",
                 tok.c_str());
    return std::nullopt;
  }
  const auto f = faults::parse_family(src->family);
  if (!f) {
    std::fprintf(stderr, "error: unknown family '%s' (campaigns run on cycle|grid|torus)\n",
                 tok.c_str());
  }
  return f;
}

// `lad gen torus:1000x1000@7 --out g.ladg`: the first argument is the
// source; a FILE ending in .ladg gets the binary format, anything else (or
// stdout) the text edge list.
int cmd_gen(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto src = parse_source_or_complain(argv[0]);
  if (!src) return 2;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
  }
  try {
    const LoadedGraph lg = load_graph_source(*src);
    if (out_path.empty()) {
      write_edge_list(std::cout, lg.graph);
      return 0;
    }
    if (out_path.ends_with(".ladg")) {
      write_ladg(out_path, lg.graph);
    } else {
      std::ofstream out(out_path);
      LAD_CHECK_MSG(out.good(), "cannot write " << out_path);
      write_edge_list(out, lg.graph);
    }
    std::printf("wrote %s (%s: n=%d m=%d digest %s)\n", out_path.c_str(), lg.spec.c_str(),
                lg.graph.n(), lg.graph.m(), lg.digest.c_str());
  } catch (const GraphIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

void print_provenance(const EngineAuditLog& log) {
  std::printf("%6s %8s %12s %12s %10s\n", "round", "active", "max |prov|", "avg |prov|",
              "max radius");
  for (const auto& s : log.per_round) {
    std::printf("%6d %8d %12d %12.2f %10d\n", s.round, s.active_nodes, s.max_set_size,
                s.avg_set_size, s.max_radius);
  }
  if (log.clean()) {
    std::printf("provenance: clean (every node's information stayed inside its ball)\n");
  } else {
    for (const auto& v : log.violations) std::printf("VIOLATION: %s\n", v.detail.c_str());
  }
}

int print_report(const LocalityAuditReport& report, int declared_rounds) {
  std::printf("decoder declared radius: %d rounds\n", declared_rounds);
  std::printf("indistinguishability audit: %d nodes checked, %d skipped (views differ)\n",
              report.nodes_checked, report.nodes_skipped);
  if (report.nodes_checked == 0) {
    std::printf("note: no node had an unchanged radius-%d view; use an instance with "
                "diameter well above the decoder radius for real coverage\n",
                declared_rounds);
  }
  if (report.clean()) {
    std::printf("audit: CLEAN\n");
    return 0;
  }
  for (const auto& v : report.violations) std::printf("VIOLATION: %s\n", v.detail.c_str());
  return 3;
}

// Flooding for `radius` rounds under the provenance auditor: the canonical
// audit-clean engine algorithm (provenance grows exactly one hop per round).
class AuditFlooder : public SyncAlgorithm {
 public:
  explicit AuditFlooder(int radius) : radius_(radius) {}
  void init(const Graph& g) override {
    known_.assign(static_cast<std::size_t>(g.n()), "");
    for (int v = 0; v < g.n(); ++v) known_[static_cast<std::size_t>(v)] = std::to_string(g.id(v));
  }
  void round(NodeCtx& ctx) override {
    auto& k = known_[static_cast<std::size_t>(ctx.node())];
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.has_message(p)) continue;
      k += '|';
      k += ctx.received(p);
    }
    if (ctx.round_number() > radius_) {
      ctx.halt(k);
      return;
    }
    ctx.broadcast(k);
  }

 private:
  int radius_;
  std::vector<std::string> known_;
};

int cmd_audit(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto lg = load_source_or_complain(argv[0]);
  if (!lg) return 2;
  const Graph& g = lg->graph;
  const std::string which = argv[1];

  if (which == "gather") {
    int radius = 3;
    if (argc >= 3 && !read_number("gather radius", argv[2], radius, 0)) return 2;
    AuditFlooder alg(radius);
    Engine eng(g);
    eng.enable_audit(/*fail_fast=*/false);
    const auto run = eng.run(alg, radius + 2);
    std::printf("flooding gather, radius %d, on n=%d m=%d\n", radius, g.n(), g.m());
    print_provenance(eng.audit_log());
    return run.all_halted && eng.audit_log().clean() ? 0 : 3;
  }

  if (which == "cv") {
    EngineAuditLog log;
    const auto res = cole_vishkin_cycle(g, cycle_successors(g), &log);
    std::printf("Cole-Vishkin 3-coloring, %d rounds, on n=%d\n", res.rounds, g.n());
    print_provenance(log);
    return log.clean() ? 0 : 3;
  }

  // Decoder audits: re-encode and re-decode on a perturbed instance; any
  // node whose radius-T view is unchanged must produce the same output.
  // On a disconnected graph the perturbation rotates the IDs of every
  // component except node 0's, so that whole component is auditable (gen
  // twocycles produces such instances); on a connected graph it rotates
  // outside ball(0, 3) and coverage depends on how far the encoder's
  // advice shifts under the relabeling — it is reported, not assumed.
  const auto dist0 = bfs_distances(g, 0);
  const bool connected =
      std::none_of(dist0.begin(), dist0.end(), [](int d) { return d == kUnreachable; });
  const Graph alt = rotate_ids_outside_ball(g, 0, connected ? 3 : g.n());

  const Pipeline* pipe = find_pipeline(which);

  if (pipe != nullptr && pipe->id() != PipelineId::kDecompress) {
    // Generic registry audit: encode + decode on the base and perturbed
    // instance, compare per-node outputs where views are unchanged. Two
    // pipelines need storage-order-invariant output strings (an edge's
    // 'forward' flips when its endpoint storage order does), so their
    // digests are rewritten tail-relative.
    auto instance = [&pipe](const Graph& gr) {
      const auto adv = pipe->encode(gr, {});
      const auto out = pipe->decode(gr, adv, {});
      DecodedInstance inst;
      inst.g = &gr;
      inst.advice = adv.node_strings(gr.n());
      inst.rounds = out.rounds;
      if (pipe->id() == PipelineId::kOrientation) {
        for (int v = 0; v < gr.n(); ++v) {
          std::string s;
          for (const int e : gr.incident_edges(v)) {
            const bool tail =
                (out.orientation[static_cast<std::size_t>(e)] == EdgeDir::kForward) ==
                (gr.edge_u(e) == v);
            s += tail ? '>' : '<';
          }
          inst.outputs.push_back(s);
        }
      } else if (pipe->id() == PipelineId::kSplitting) {
        for (int v = 0; v < gr.n(); ++v) {
          std::string s = std::to_string(out.node_color[static_cast<std::size_t>(v)]) + ":";
          for (const int e : gr.incident_edges(v)) {
            s += std::to_string(out.edge_color[static_cast<std::size_t>(e)]);
          }
          inst.outputs.push_back(s);
        }
      } else {
        inst.outputs = pipe->node_digests(gr, out);
      }
      return inst;
    };
    const auto base = instance(g);
    return print_report(audit_decoded_pair(base, instance(alt)), base.rounds);
  }

  if (pipe != nullptr && pipe->id() == PipelineId::kDecompress) {
    // Input-flip perturbation: the advice for X must not let a node learn
    // about membership changes far outside its decoding radius.
    auto instance = [&g](int flip_edge) {
      std::vector<char> x(static_cast<std::size_t>(g.m()));
      for (int e = 0; e < g.m(); ++e) x[static_cast<std::size_t>(e)] = e % 3 == 0;
      if (flip_edge >= 0) x[static_cast<std::size_t>(flip_edge)] ^= 1;
      const auto c = compress_edge_set(g, x);
      const auto r = decompress_edge_set(g, c);
      DecodedInstance inst;
      inst.g = &g;
      for (int v = 0; v < g.n(); ++v) {
        inst.advice.push_back(c.labels[static_cast<std::size_t>(v)].to_string());
      }
      inst.rounds = r.rounds;
      for (int v = 0; v < g.n(); ++v) {
        std::string s;
        for (const int e : g.incident_edges(v)) {
          s += r.in_x[static_cast<std::size_t>(e)] ? '1' : '0';
        }
        inst.outputs.push_back(s);
      }
      return inst;
    };
    const auto base = instance(-1);
    return print_report(audit_decoded_pair(base, instance(g.m() / 2)), base.rounds);
  }

  std::fprintf(stderr, "error: unknown audit target '%s'\n", which.c_str());
  usage();
  return 2;
}

int cmd_bench(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string suite;
  int i = 0;
  if (argv[0][0] != '-') suite = argv[i++];
  std::vector<int> thread_list = {ThreadPool::default_threads()};
  int reps = 1;
  std::string json_path;
  std::string pipeline_name = "orientation";
  std::vector<std::string> graph_specs;
  bool with_trace = false;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads" && i + 1 < argc) {
      // Comma list: each count re-runs the batch and becomes one measured
      // row of the case's record, so a scaling curve lands in one document.
      if (!read_number_list("--threads", argv[++i], thread_list, 1)) return 2;
    } else if (a == "--reps" && i + 1 < argc) {
      if (!read_number("--reps", argv[++i], reps, 1)) return 2;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--graph" && i + 1 < argc) {
      for (auto& tok : split_csv(argv[++i])) graph_specs.push_back(std::move(tok));
    } else if (a == "--pipeline" && i + 1 < argc) {
      pipeline_name = argv[++i];
    } else if (a == "--trace") {
      with_trace = true;
    } else {
      return usage();
    }
  }
  if (graph_specs.empty() == suite.empty()) return usage();  // exactly one mode

  bench::BenchSuiteResult res;
  if (!graph_specs.empty()) {
    // Source mode: one case per graph source through one pipeline; the
    // multi-thread re-run rebuilds the CSR on the pool, so `identical`
    // certifies parallel-construction determinism on that exact graph.
    if (find_pipeline(pipeline_name) == nullptr) {
      std::fprintf(stderr, "error: unknown pipeline '%s'\n", pipeline_name.c_str());
      return 2;
    }
    std::vector<GraphSource> sources;
    for (const auto& spec : graph_specs) {
      const auto src = parse_source_or_complain(spec);
      if (!src) return 2;
      sources.push_back(*src);
    }
    try {
      res = bench::run_source_bench(sources, pipeline_name, thread_list, with_trace, reps);
    } catch (const GraphIoError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    const auto names = bench::bench_suite_names();
    if (std::find(names.begin(), names.end(), suite) == names.end()) {
      std::fprintf(stderr, "error: unknown bench suite '%s'\n", suite.c_str());
      return 2;
    }
    res = bench::run_bench_suite(suite, thread_list, with_trace, reps);
  }
  std::printf("suite %s, %d threads (%d hardware), min of %d rep(s)\n", res.suite.c_str(),
              res.threads, res.hardware_threads, res.reps);
  std::printf("%-34s %8s %6s %10s %10s %8s %5s\n", "case", "n", "rounds", "1t ms", "ms",
              "speedup", "same");
  bool all_identical = true;
  bool any_error = false;
  bool any_rejected = false;
  for (const auto& c : res.cases) {
    if (!c.error.empty()) {
      std::printf("%-34s ERROR: %s\n", c.name.c_str(), c.error.c_str());
      (c.rejected ? any_rejected : any_error) = true;
      continue;
    }
    // One line per listed count, named "case/t=K" when there are several.
    for (const bench::ThreadRun& r : c.runs) {
      const std::string name =
          c.runs.size() > 1 ? c.name + "/t=" + std::to_string(r.threads) : c.name;
      std::printf("%-34s %8d %6d %10.2f %10.2f %7.2fx %5s\n", name.c_str(), c.det.n,
                  c.det.rounds, c.wall_ms_1, r.wall_ms, r.speedup_vs_1, r.identical ? "yes" : "NO");
      if (!c.det.counters.empty()) {
        std::printf("   ");
        for (const auto& [key, value] : c.det.counters) std::printf(" %s=%g", key.c_str(), value);
        std::printf("\n");
      }
      all_identical = all_identical && r.identical;
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    LAD_CHECK_MSG(out.good(), "cannot write " << json_path);
    out << res.to_json();
    std::printf("wrote %s\n", json_path.c_str());
  }
  // A case that broke a contract is a hard failure, reported only after
  // every other case ran and the document is on disk; a rejected input is
  // the usage class. A thread count changing any output byte is a
  // determinism-contract violation — fail loudly so CI catches it.
  if (any_error) return 4;
  if (any_rejected) return 2;
  return all_identical ? 0 : 3;
}

int cmd_faultsim(int argc, char** argv) {
  if (argc < 3) return usage();
  const Pipeline* p = find_pipeline(argv[0]);
  if (p == nullptr) {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", argv[0]);
    return 2;
  }
  const auto family = parse_campaign_family(argv[1]);
  if (!family) return 2;

  faults::CampaignConfig cfg;
  cfg.decoder = p->id();
  cfg.family = *family;
  if (!read_number("n", argv[2], cfg.n, 8)) return 2;
  cfg.trials = 20;
  cfg.seed = 1;
  int i = 3;
  // A campaign of zero trials would report "no silent corruption" without
  // testing anything, so the count must be a positive integer.
  if (i < argc && argv[i][0] != '-' && !read_number("trial count", argv[i++], cfg.trials, 1)) {
    return 2;
  }
  if (i < argc && argv[i][0] != '-' && !read_number("seed", argv[i++], cfg.seed)) return 2;
  // Fault/policy knobs all default to the legacy plan, so the flag-free
  // invocation stays byte-identical to the pinned faultsim goldens.
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--crash-recovery" && i + 1 < argc) {
      if (!read_number("--crash-recovery", argv[++i], cfg.plan.engine.crash_recovery_rounds, 0)) {
        return 2;
      }
    } else if (a == "--dup" && i + 1 < argc) {
      if (!read_number("--dup", argv[++i], cfg.plan.engine.message_duplicate_prob, 0.0, 1.0)) {
        return 2;
      }
    } else if (a == "--delay" && i + 1 < argc) {
      if (!read_number("--delay", argv[++i], cfg.plan.engine.message_delay_prob, 0.0, 1.0)) {
        return 2;
      }
    } else if (a == "--max-delay" && i + 1 < argc) {
      if (!read_number("--max-delay", argv[++i], cfg.plan.engine.max_delay_rounds, 1)) return 2;
    } else if (a == "--targeting" && i + 1 < argc) {
      const std::string t = argv[++i];
      if (t == "uniform") {
        cfg.plan.advice.targeting = faults::AdviceTargeting::kUniform;
      } else if (t == "high_degree") {
        cfg.plan.advice.targeting = faults::AdviceTargeting::kHighDegree;
      } else if (t == "region_boundary") {
        cfg.plan.advice.targeting = faults::AdviceTargeting::kRegionBoundary;
      } else {
        std::fprintf(stderr, "error: unknown targeting '%s'\n", t.c_str());
        return 2;
      }
    } else if (a == "--burst" && i + 1 < argc) {
      if (!read_number("--burst", argv[++i], cfg.plan.graph.burst_count, 0)) return 2;
    } else if (a == "--burst-radius" && i + 1 < argc) {
      if (!read_number("--burst-radius", argv[++i], cfg.plan.graph.burst_radius, 0)) return 2;
    } else if (a == "--policy" && i + 1 < argc) {
      if (!faults::chaos_repair_policy(argv[++i], cfg.policy)) {
        std::fprintf(stderr, "error: unknown repair policy '%s'\n", argv[i]);
        return 2;
      }
    } else {
      return usage();
    }
  }

  const auto s = faults::run_fault_campaign(cfg);
  std::printf("%s\n", s.to_string().c_str());
  for (int t = 0; t < s.trials; ++t) {
    const auto& r = s.reports[static_cast<std::size_t>(t)];
    std::printf("trial %3d: faults=%lld detected=%lld repaired=%zu flagged=%zu "
                "valid=%s blast=%d%s\n",
                t, r.faults_injected(), r.detected_violations, r.repaired_nodes.size(),
                r.flagged_nodes.size(), r.output_valid ? "yes" : "no", r.blast_radius,
                r.silent_corruption ? " SILENT-CORRUPTION" : "");
  }
  // The layer's contract: a campaign never ends in silent corruption. A
  // nonzero exit makes that machine-checkable for scripts and CI.
  return s.silent_corruptions == 0 ? 0 : 3;
}

int cmd_chaos(int argc, char** argv) {
  faults::ChaosConfig cfg;
  std::string out_path = "ROBUSTNESS-generated.md";
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--pipelines" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        const Pipeline* p = find_pipeline(tok);
        if (p == nullptr) {
          std::fprintf(stderr, "error: unknown pipeline '%s'\n", tok.c_str());
          return 2;
        }
        cfg.pipelines.push_back(p->id());
      }
    } else if (a == "--families" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        const auto f = parse_campaign_family(tok);
        if (!f) return 2;
        cfg.families.push_back(*f);
      }
    } else if (a == "--models" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        faults::FaultPlan probe;
        if (!faults::chaos_fault_model(tok, probe)) {
          std::fprintf(stderr, "error: unknown fault model '%s'\n", tok.c_str());
          return 2;
        }
        cfg.models.push_back(tok);
      }
    } else if (a == "--rates" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        if (!read_number("--rates entry", tok, cfg.rate_percents.emplace_back(), 1, 1000)) {
          return 2;
        }
      }
    } else if (a == "--policies" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        lad::robust::RepairPolicy probe;
        if (!faults::chaos_repair_policy(tok, probe)) {
          std::fprintf(stderr, "error: unknown repair policy '%s'\n", tok.c_str());
          return 2;
        }
        cfg.policies.push_back(tok);
      }
    } else if (a == "-n" && i + 1 < argc) {
      if (!read_number("-n", argv[++i], cfg.n, 8)) return 2;
    } else if (a == "--trials" && i + 1 < argc) {
      if (!read_number("--trials", argv[++i], cfg.trials, 1)) return 2;
    } else if (a == "--seed" && i + 1 < argc) {
      if (!read_number("--seed", argv[++i], cfg.seed)) return 2;
    } else if (a == "--threads" && i + 1 < argc) {
      if (!read_number("--threads", argv[++i], cfg.threads, 1)) return 2;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }

  const auto report = faults::run_chaos_campaign(cfg);
  std::printf("chaos: %zu cells, n=%d, trials=%d per cell, seed=%llu\n", report.cells.size(),
              report.n, report.trials, static_cast<unsigned long long>(report.seed));
  for (const auto& c : report.cells) {
    std::printf("%-14s %-6s %-12s %4d%% %-9s faults=%-6lld valid=%d/%d silent=%d "
                "accounted=%s%s\n",
                pipeline(c.decoder).name(), faults::to_string(c.family), c.model.c_str(),
                c.rate_percent, c.policy.c_str(), c.summary.faults_injected,
                c.summary.trials_output_valid, c.summary.trials,
                c.summary.silent_corruptions, c.summary.all_nodes_accounted ? "yes" : "NO",
                c.ok() ? "" : "  CELL-FAIL");
  }
  {
    std::ofstream out(out_path);
    LAD_CHECK_MSG(out.good(), "cannot write " << out_path);
    out << report.to_markdown();
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    LAD_CHECK_MSG(out.good(), "cannot write " << json_path);
    out << report.to_json();
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::printf("chaos %s\n", report.pass() ? "PASS" : "FAIL");
  // Same contract as faultsim, matrix-wide: any cell with a silent
  // corruption or an unaccounted node fails the run.
  return report.pass() ? 0 : 3;
}

// Shared option parsing for the two claims-observatory commands
// (verify-claims and report differ only in output form).
struct ClaimsArgs {
  std::vector<int> ns = obs::default_sweep_ns();
  /// --ns pins the sweep exactly; otherwise pipelines may extend it
  /// (Pipeline::sweep_ns) so their fits span more decades.
  bool ns_explicit = false;
  /// --graphs: sweep these sources instead of generated instances.
  std::vector<GraphSource> sources;
  std::string family;
  std::uint64_t seed = 1;
  bool json = false;
  std::string out_path;
  bool ok = true;
};

ClaimsArgs parse_claims_args(int argc, char** argv) {
  ClaimsArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--family" && i + 1 < argc) {
      args.family = argv[++i];
    } else if (a == "--ns" && i + 1 < argc) {
      args.ns_explicit = true;
      if (!read_number_list("--ns", argv[++i], args.ns, 8)) {
        args.ok = false;
        return args;
      }
      if (args.ns.size() < 3) {
        std::fprintf(stderr, "error: --ns needs at least 3 comma-separated sizes >= 8\n");
        args.ok = false;
        return args;
      }
    } else if (a == "--graphs" && i + 1 < argc) {
      for (const auto& tok : split_csv(argv[++i])) {
        const auto src = parse_source_or_complain(tok);
        if (!src) {
          args.ok = false;
          return args;
        }
        args.sources.push_back(*src);
      }
    } else if (a == "--seed" && i + 1 < argc) {
      if (!read_number("--seed", argv[++i], args.seed)) {
        args.ok = false;
        return args;
      }
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--out" && i + 1 < argc) {
      args.out_path = argv[++i];
    } else {
      args.ok = false;
      return args;
    }
  }
  return args;
}

// Shared claims-observatory run: generated n-sweep by default (with
// per-pipeline extension unless --ns pinned the sizes), or a --graphs
// source sweep. Throws are mapped to exit 2 by the callers' catch blocks.
obs::ClaimsReport run_claims(const ClaimsArgs& args) {
  if (!args.sources.empty()) {
    return obs::verify_claims_sources(args.sources, args.family, args.seed);
  }
  return obs::verify_claims(args.ns, args.family, args.seed,
                            /*extend_sweeps=*/!args.ns_explicit);
}

int cmd_verify_claims(int argc, char** argv) {
  const ClaimsArgs args = parse_claims_args(argc, argv);
  if (!args.ok || !args.out_path.empty()) return usage();
  obs::ClaimsReport report;
  try {
    report = run_claims(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const GraphIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("%s", (args.json ? report.to_json() : report.to_text()).c_str());
  return report.pass() ? 0 : 3;
}

int cmd_report(int argc, char** argv) {
  ClaimsArgs args = parse_claims_args(argc, argv);
  if (!args.ok || args.json) return usage();
  if (args.out_path.empty()) args.out_path = "EXPERIMENTS-generated.md";
  obs::ClaimsReport report;
  try {
    report = run_claims(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const GraphIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::ofstream out(args.out_path);
  LAD_CHECK_MSG(out.good(), "cannot write " << args.out_path);
  out << report.to_markdown();

  // Perf trajectory: every checked-in BENCH_*.json generation in the
  // working directory, appended as one serial-wall-time table per case. A
  // document that does not parse degrades to a warning — the claims report
  // itself is the contract (and a tier-1 test parses every checked-in one).
  std::vector<std::string> bench_files;
  try {
    for (const auto& entry : std::filesystem::directory_iterator(".")) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.ends_with(".json")) bench_files.push_back(name);
    }
  } catch (const std::filesystem::filesystem_error&) {
    // Unreadable cwd: skip the trajectory rather than fail the report.
  }
  std::sort(bench_files.begin(), bench_files.end());
  std::vector<obs::BenchGeneration> generations;
  for (const auto& name : bench_files) {
    std::ifstream in(name);
    if (!in.good()) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
      generations.push_back({name, obs::parse_run_document(ss.str())});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: skipping %s: %s\n", name.c_str(), e.what());
    }
  }
  if (!generations.empty()) out << "\n" << obs::perf_trajectory_markdown(generations);

  std::printf("wrote %s (%zu pipeline(s), %zu bench generation(s), overall %s)\n",
              args.out_path.c_str(), report.pipelines.size(), generations.size(),
              report.pass() ? "PASS" : "FAIL");
  return report.pass() ? 0 : 3;
}

// The observed run (DESIGN.md §13): faults::observe_run drives encode ->
// decode -> verify -> verification echo once per listed thread count and
// fills one run record; this verb renders it and writes the exports, which
// describe the last rep at the last count.
int cmd_profile(int argc, char** argv) {
  if (argc < 1) return usage();
  const Pipeline* p = find_pipeline(argv[0]);
  if (p == nullptr) {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", argv[0]);
    return 2;
  }
  std::string graph_spec = "cycle:65536";
  std::vector<int> thread_list = {1};
  int reps = 1;
  std::uint64_t seed = 1;
  std::string json_path, out_path, chrome_path, jsonl_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--graph" && i + 1 < argc) {
      graph_spec = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      if (!read_number_list("--threads", argv[++i], thread_list, 1)) return 2;
    } else if (a == "--reps" && i + 1 < argc) {
      if (!read_number("--reps", argv[++i], reps, 1)) return 2;
    } else if (a == "--seed" && i + 1 < argc) {
      if (!read_number("--seed", argv[++i], seed)) return 2;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--chrome" && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (a == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      return usage();
    }
  }
  PipelineConfig cfg;
  cfg.seed = seed;
  const auto lg = load_source_or_complain(graph_spec, seed);
  if (!lg) return 2;

  LAD_TM_THREAD_NAME("lad-main");
  obs::RunReport report;
  try {
    report = faults::observe_run(*p, lg->graph, lg->spec, cfg, thread_list, reps);
  } catch (const std::runtime_error& e) {
    // A deterministic slice diverging across thread counts is the same
    // class of failure as a `lad diff` mismatch: hard exit 4.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }

  std::printf("%s", report.to_markdown().c_str());
  auto write_file = [](const std::string& path, const std::string& body, const char* what) {
    if (path.empty()) return;
    std::ofstream f(path);
    LAD_CHECK_MSG(f.good(), "cannot write " << path);
    f << body;
    std::printf("wrote %s (%s)\n", path.c_str(), what);
  };
  write_file(json_path, report.to_json(), "run record");
  write_file(out_path, report.to_markdown(), "observed-run report");
  const auto& rec = obs::TraceRecorder::instance();
  write_file(chrome_path, rec.to_chrome_json(), "Chrome trace; load in Perfetto");
  write_file(jsonl_path, rec.to_jsonl(), "JSONL events");
  write_file(metrics_path, obs::MetricsRegistry::instance().to_prometheus(),
             "Prometheus text format");
  return report.det.verify_ok ? 0 : 3;
}

// One differ for every run document (DESIGN.md §9.7), bench or profile,
// graded by the 0/3/4 convention; a document that does not parse exits 2.
int cmd_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  obs::DiffOptions opts;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tol-ms" && i + 1 < argc) {
      if (!read_number("--tol-ms", argv[++i], opts.tol_ms, 0.0)) return 2;
    } else if (a == "--tol-rel" && i + 1 < argc) {
      if (!read_number("--tol-rel", argv[++i], opts.tol_rel, 0.0)) return 2;
    } else if (a == "--json") {
      json = true;
    } else {
      return usage();
    }
  }
  auto slurp = [](const char* path) {
    std::ifstream in(path);
    if (!in.good()) throw std::runtime_error(std::string("cannot open ") + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  obs::DiffResult diff;
  try {
    diff = obs::diff_documents(slurp(argv[0]), slurp(argv[1]), opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("%s", (json ? diff.to_json() : diff.to_text()).c_str());
  return static_cast<int>(diff.status());
}

int cmd_dot(const std::string& spec) {
  const auto lg = load_source_or_complain(spec);
  if (!lg) return 2;
  std::cout << to_dot(lg->graph);
  return 0;
}

// Static analysis over the repository's own sources (DESIGN.md §10):
// determinism rules for the deterministic layers, the architecture-DAG
// layering rule, and telemetry-catalog hygiene. Exit codes follow the
// `lad diff` convention: 0 clean, 2 usage, 3 new findings, 4 parse failure.
int cmd_lint(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  bool baseline_explicit = false;
  std::string write_baseline;
  bool json = false;
  lint::RuleConfig cfg = lint::repo_rule_config();
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (a == "--rule" && i + 1 < argc) {
      const std::string r = argv[++i];
      if (!lint::known_rule(r)) {
        std::fprintf(stderr, "error: unknown lint rule '%s' (try --list-rules)\n", r.c_str());
        return 2;
      }
      cfg.filter.push_back(r);
    } else if (a == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
      baseline_explicit = true;
    } else if (a == "--write-baseline" && i + 1 < argc) {
      write_baseline = argv[++i];
    } else if (a == "--json") {
      json = true;
    } else if (a == "--list-rules") {
      for (const auto& r : lint::rule_catalog()) {
        std::printf("%-26s %s\n", r.name.c_str(), r.summary.c_str());
      }
      return 0;
    } else {
      return usage();
    }
  }
  if (!baseline_explicit) {
    // Convention mirror of BENCH_baseline.json: the checked-in baseline at
    // the lint root is picked up automatically when present.
    const std::string candidate = root + "/lint_baseline.json";
    if (std::ifstream(candidate).good()) baseline_path = candidate;
  }

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in.good()) {
      std::fprintf(stderr, "error: cannot open baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    baseline_json = ss.str();
  }

  lint::LintReport report;
  try {
    const auto sources = lint::collect_repo_sources(root);
    report = lint::run_lint(sources, cfg, baseline_json);
  } catch (const lint::LintParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (!write_baseline.empty()) {
    std::ofstream out(write_baseline);
    LAD_CHECK_MSG(out.good(), "cannot write " << write_baseline);
    out << report.to_baseline_json();
    std::printf("wrote %s (%zu finding(s) grandfathered)\n", write_baseline.c_str(),
                report.items.size());
  }
  std::printf("%s", (json ? report.to_json() : report.to_text()).c_str());
  return report.clean() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
    if (cmd == "audit") return cmd_audit(argc - 2, argv + 2);
    if (cmd == "faultsim") return cmd_faultsim(argc - 2, argv + 2);
    if (cmd == "chaos") return cmd_chaos(argc - 2, argv + 2);
    if (cmd == "bench") return cmd_bench(argc - 2, argv + 2);
    if (cmd == "profile") return cmd_profile(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
    if (cmd == "verify-claims") return cmd_verify_claims(argc - 2, argv + 2);
    if (cmd == "report") return cmd_report(argc - 2, argv + 2);
    if (cmd == "lint") return cmd_lint(argc - 2, argv + 2);
    if (cmd == "dot") return argc >= 3 ? cmd_dot(argv[2]) : usage();
  } catch (const std::exception& e) {
    // A graph outside a pipeline's theorem is bad input (2); anything else
    // is a hard failure: a contract violation or another internal error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return dynamic_cast<const InadmissibleInput*>(&e) != nullptr ? 2 : 4;
  }
  std::fprintf(stderr, "error: unknown verb '%s'\n", cmd.c_str());
  return usage();
}
