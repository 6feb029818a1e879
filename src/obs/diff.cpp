#include "obs/diff.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/json_mini.hpp"
#include "obs/profile.hpp"  // parse_run_json, diff_run

namespace lad::obs {
namespace {

using jsonmini::JsonParser;
using jsonmini::JsonValue;
using jsonmini::json_escape;
using jsonmini::num_field;
using jsonmini::str_field;

std::string fmt_ms(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string fmt4(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// Counters compare as one exact field: name=value pairs in document order,
// each value rendered exactly (%.17g, the writer's format).
std::string render_counters(const BenchCaseRow& row) {
  std::string out;
  for (const auto& [name, value] : row.counters) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (out.empty() ? "" : ", ") + name + "=" + buf;
  }
  return out;
}

// Shared parse body: the strict path (`lad diff`) requires every
// field of the diffable format; the lenient path (`lad report`'s
// trajectory table) lets any schema generation through with defaults.
BenchDoc parse_bench_json_impl(const std::string& text, bool strict) {
  const JsonValue root = JsonParser(text, "bench JSON").parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("bench JSON: top level is not an object");
  }
  BenchDoc doc;
  doc.schema_version =
      static_cast<int>(num_field(root, "schema_version", /*required=*/strict, 1));
  if (strict && doc.schema_version < 2) {
    throw std::runtime_error("bench JSON: schema_version " +
                             std::to_string(doc.schema_version) +
                             " predates the diffable format (need >= 2)");
  }
  doc.git_commit = str_field(root, "git_commit", strict);
  doc.timestamp = str_field(root, "timestamp", strict);
  doc.suite = str_field(root, "suite", strict);
  doc.threads = static_cast<int>(num_field(root, "threads", strict));
  doc.hardware_threads = static_cast<int>(num_field(root, "hardware_threads", strict));
  doc.reps = static_cast<int>(num_field(root, "reps", /*required=*/false, 1));

  const JsonValue* cases = root.find("cases");
  if (cases == nullptr || cases->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("bench JSON: missing \"cases\" array");
  }
  for (const JsonValue& c : cases->array) {
    if (c.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("bench JSON: case entry is not an object");
    }
    BenchCaseRow row;
    row.name = str_field(c, "name", true);
    row.error = str_field(c, "error", /*required=*/false);
    if (!row.error.empty()) {
      doc.cases.push_back(std::move(row));  // an error row has no other field
      continue;
    }
    row.n = static_cast<int>(num_field(c, "n", strict));
    row.m = static_cast<int>(num_field(c, "m", strict));
    row.rounds = static_cast<int>(num_field(c, "rounds", strict));
    row.bits_per_node = num_field(c, "bits_per_node", strict);
    row.total_bits = static_cast<long long>(num_field(c, "total_bits", strict));
    row.wall_ms_1 = num_field(c, "wall_ms_1t", strict);
    row.wall_ms = num_field(c, "wall_ms", strict);
    row.digest = str_field(c, "digest", /*required=*/false);
    row.source = str_field(c, "source", /*required=*/false);
    row.graph_digest = str_field(c, "graph_digest", /*required=*/false);
    row.threads = static_cast<int>(num_field(c, "threads", /*required=*/false, 1));
    row.top_phase = str_field(c, "top_phase", /*required=*/false);
    if (const JsonValue* m = c.find("metrics"); m != nullptr) {
      if (m->kind != JsonValue::Kind::kObject) {
        throw std::runtime_error("bench JSON: \"metrics\" is not an object");
      }
      for (const auto& [k, v] : m->object) {
        row.metrics[k] = static_cast<long long>(v.number);
      }
    }
    if (const JsonValue* ctr = c.find("counters"); ctr != nullptr) {
      if (ctr->kind != JsonValue::Kind::kObject) {
        throw std::runtime_error("bench JSON: \"counters\" is not an object");
      }
      for (const auto& [k, v] : ctr->object) {
        if (v.kind != JsonValue::Kind::kNumber) {
          throw std::runtime_error("bench JSON: counter \"" + k + "\" is not a number");
        }
        row.counters.emplace_back(k, v.number);
      }
    }
    doc.cases.push_back(std::move(row));
  }
  return doc;
}

}  // namespace

BenchDoc parse_bench_json(const std::string& text) {
  return parse_bench_json_impl(text, /*strict=*/true);
}

BenchDoc parse_bench_json_lenient(const std::string& text) {
  return parse_bench_json_impl(text, /*strict=*/false);
}

std::string perf_trajectory_markdown(const std::vector<BenchGeneration>& generations) {
  std::ostringstream os;
  os << "## Perf trajectory\n\n"
     << "Serial wall time (`wall_ms_1t`, min-of-reps, milliseconds) per case\n"
     << "across the checked-in bench generations. Wall times are\n"
     << "machine-dependent: read the column-to-column *shape*, not the\n"
     << "absolute numbers, and use `lad diff` for gating.\n\n";
  if (generations.empty()) {
    os << "No BENCH_*.json generations found.\n";
    return os.str();
  }
  // Union of case names in first-seen order, so rows stay stable as
  // generations add cases.
  std::vector<std::string> names;
  for (const auto& gen : generations) {
    for (const auto& c : gen.doc.cases) {
      if (std::find(names.begin(), names.end(), c.name) == names.end()) {
        names.push_back(c.name);
      }
    }
  }
  os << "| case |";
  for (const auto& gen : generations) {
    os << " " << gen.label << " (v" << gen.doc.schema_version;
    if (!gen.doc.suite.empty()) os << ", " << gen.doc.suite;
    os << ") |";
  }
  os << "\n|---|";
  for (std::size_t i = 0; i < generations.size(); ++i) os << "---|";
  os << "\n";
  for (const auto& name : names) {
    os << "| " << name << " |";
    for (const auto& gen : generations) {
      const auto it =
          std::find_if(gen.doc.cases.begin(), gen.doc.cases.end(),
                       [&name](const BenchCaseRow& c) { return c.name == name; });
      if (it == gen.doc.cases.end()) {
        os << " — |";
      } else if (!it->error.empty()) {
        os << " error |";
      } else {
        os << " " << fmt_ms(it->wall_ms_1) << " |";
      }
    }
    os << "\n";
  }
  return os.str();
}

DiffStatus DiffResult::status() const {
  DiffStatus worst = DiffStatus::kClean;
  for (const auto& f : findings) {
    if (static_cast<int>(f.severity) > static_cast<int>(worst)) worst = f.severity;
  }
  return worst;
}

std::string DiffResult::to_text() const {
  std::ostringstream os;
  if (findings.empty()) {
    os << "diff: clean (" << compared << " timed row(s) compared)\n";
    return os.str();
  }
  for (const auto& f : findings) {
    os << (f.severity == DiffStatus::kRegression ? "REGRESSION" : "MISMATCH") << " ";
    if (!f.where.empty()) os << f.where << " ";
    os << "[" << f.field << "]: " << f.detail << "\n";
  }
  os << "diff: " << findings.size() << " finding(s) over " << compared
     << " timed row(s), exit " << static_cast<int>(status()) << "\n";
  return os.str();
}

std::string DiffResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"exit\": " << static_cast<int>(status()) << ",\n  \"compared\": " << compared
     << ",\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    os << "    {\"where\": \"" << json_escape(f.where) << "\", \"field\": \""
       << json_escape(f.field) << "\", \"severity\": "
       << (f.severity == DiffStatus::kRegression ? "\"regression\"" : "\"mismatch\"")
       << ", \"detail\": \"" << json_escape(f.detail) << "\"}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void DiffResult::exact(const std::string& where, const std::string& field,
                       const std::string& baseline, const std::string& candidate) {
  if (baseline == candidate) return;
  findings.push_back({where, field, "baseline '" + baseline + "' != candidate '" + candidate + "'",
                      DiffStatus::kMismatch});
}

void DiffResult::exact(const std::string& where, const std::string& field, long long baseline,
                       long long candidate) {
  exact(where, field, std::to_string(baseline), std::to_string(candidate));
}

void DiffResult::timing(const std::string& where, const std::string& field, double baseline_ms,
                        double candidate_ms, const DiffOptions& opts) {
  ++compared;
  const double allowed = baseline_ms + std::max(opts.tol_ms, opts.tol_rel * baseline_ms);
  if (candidate_ms <= allowed) return;
  findings.push_back({where, field,
                      "candidate " + fmt_ms(candidate_ms) + " ms exceeds baseline " +
                          fmt_ms(baseline_ms) + " ms + tolerance (allowed " + fmt_ms(allowed) +
                          " ms)",
                      DiffStatus::kRegression});
}

DiffResult diff_bench(const BenchDoc& baseline, const BenchDoc& candidate,
                      const DiffOptions& opts) {
  DiffResult res;
  res.exact("", "suite", baseline.suite, candidate.suite);
  if (!res.findings.empty()) return res;  // different suites: case rows are incomparable

  const auto find = [](const BenchDoc& doc, const std::string& name) -> const BenchCaseRow* {
    for (const auto& c : doc.cases) {
      if (c.name == name) return &c;
    }
    return nullptr;
  };
  // Optional provenance (digest, source, graph digest) is compared only
  // when both documents carry it.
  const auto both = [&res](const std::string& where, const char* field, const std::string& b,
                           const std::string& c) {
    if (!b.empty() && !c.empty()) res.exact(where, field, b, c);
  };
  for (const auto& base : baseline.cases) {
    const BenchCaseRow* cand = find(candidate, base.name);
    if (cand == nullptr) {
      res.findings.push_back({base.name, "cases",
                              "case present in baseline but missing from candidate",
                              DiffStatus::kMismatch});
      continue;
    }
    // An error row on either side carries nothing else to compare.
    if (!base.error.empty() || !cand->error.empty()) {
      res.exact(base.name, "error", base.error, cand->error);
      continue;
    }
    res.exact(base.name, "n", base.n, cand->n);
    res.exact(base.name, "m", base.m, cand->m);
    res.exact(base.name, "rounds", base.rounds, cand->rounds);
    res.exact(base.name, "total_bits", base.total_bits, cand->total_bits);
    // The writer prints 4 decimals, so the rendered form is the exact value.
    res.exact(base.name, "bits_per_node", fmt4(base.bits_per_node), fmt4(cand->bits_per_node));
    both(base.name, "digest", base.digest, cand->digest);
    both(base.name, "source", base.source, cand->source);
    both(base.name, "graph_digest", base.graph_digest, cand->graph_digest);
    // Counters exist from schema v7 on; older documents have none to compare.
    if (baseline.schema_version >= 7 && candidate.schema_version >= 7) {
      res.exact(base.name, "counters", render_counters(base), render_counters(*cand));
    }
    res.timing(base.name, "wall_ms_1t", base.wall_ms_1, cand->wall_ms_1, opts);
  }
  for (const auto& cand : candidate.cases) {
    if (find(baseline, cand.name) == nullptr) {
      res.findings.push_back(
          {cand.name, "cases",
           "case present in candidate but missing from baseline (rebaseline needed)",
           DiffStatus::kMismatch});
    }
  }
  return res;
}

DiffResult diff_documents(const std::string& baseline, const std::string& candidate,
                          const DiffOptions& opts) {
  const auto is_run_record = [](const std::string& text) {
    const JsonValue root = JsonParser(text, "diff input").parse();
    return root.kind == JsonValue::Kind::kObject && root.find("deterministic") != nullptr;
  };
  const bool base_run = is_run_record(baseline);
  if (base_run != is_run_record(candidate)) {
    throw std::runtime_error("cannot diff a bench document against a run record");
  }
  if (base_run) return diff_run(parse_run_json(baseline), parse_run_json(candidate), opts);
  return diff_bench(parse_bench_json(baseline), parse_bench_json(candidate), opts);
}

}  // namespace lad::obs
