#include "obs/diff.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/version.hpp"

namespace lad::obs {
namespace {

using jsonmini::JsonParser;
using jsonmini::JsonValue;
using jsonmini::num_field;
using jsonmini::render_json;
using jsonmini::str_field;

std::string fmt_ms(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

RunRecord parse_record(JsonValue& r) {
  if (r.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("run document: record is not an object");
  }
  RunRecord rec;
  rec.name = str_field(r, "name");
  const auto fail = [&rec](const std::string& why) {
    throw std::runtime_error("run document: record \"" + rec.name + "\": " + why);
  };
  JsonValue* det = r.find("deterministic");
  if (det == nullptr || det->kind != JsonValue::Kind::kObject) {
    fail("missing \"deterministic\" object");
  }
  rec.deterministic = std::move(*det);
  JsonValue* measured = r.find("measured");
  if (measured == nullptr || measured->kind != JsonValue::Kind::kArray) {
    fail("missing \"measured\" array");
  }
  for (JsonValue& row : measured->array) {
    if (row.kind != JsonValue::Kind::kObject) fail("measured row is not an object");
    num_field(row, "threads");
    num_field(row, "wall_ms");
    rec.measured.push_back(std::move(row));
  }
  return rec;
}

const RunRecord* find_record(const RunDocument& doc, const std::string& name) {
  for (const RunRecord& r : doc.records) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

const JsonValue* row_at(const RunRecord& rec, double threads) {
  for (const JsonValue& row : rec.measured) {
    if (row.find("threads")->number == threads) return &row;
  }
  return nullptr;
}

std::string meta_text(const RunDocument& doc, const char* key) {
  const JsonValue* v = doc.meta.find(key);
  return v == nullptr ? std::string{} : v->string;
}

}  // namespace

std::string RunDocument::to_json() const {
  JsonValue root = meta;
  JsonValue rows = jsonmini::json_array();
  for (const RunRecord& r : records) {
    rows.array.push_back(jsonmini::json_object()
                             .add("name", jsonmini::json_string(r.name))
                             .add("deterministic", r.deterministic)
                             .add("measured", jsonmini::json_array(r.measured)));
  }
  root.add("records", std::move(rows));
  return render_json(root) + "\n";
}

JsonValue run_metadata(const std::string& git_commit, const std::string& timestamp,
                       const std::string& suite, int hardware_threads, int reps) {
  return jsonmini::json_object()
      .add("schema_version", jsonmini::json_int(kSchemaVersion))
      .add("git_commit", jsonmini::json_string(git_commit))
      .add("timestamp", jsonmini::json_string(timestamp))
      .add("suite", jsonmini::json_string(suite))
      .add("hardware_threads", jsonmini::json_int(hardware_threads))
      .add("reps", jsonmini::json_int(reps));
}

RunDocument parse_run_document(const std::string& text) {
  JsonValue root = JsonParser(text, "run document").parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("run document: top level is not an object");
  }
  const JsonValue* version = root.find("schema_version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      version->string != std::to_string(kSchemaVersion)) {
    throw std::runtime_error("run document: schema_version " +
                             (version == nullptr ? "missing" : "'" + version->string + "'") +
                             ", expected " + std::to_string(kSchemaVersion));
  }
  str_field(root, "suite");
  RunDocument doc;
  doc.meta = jsonmini::json_object();
  bool has_records = false;
  for (auto& [key, value] : root.object) {
    if (key != "records") {
      doc.meta.add(key, std::move(value));
      continue;
    }
    if (value.kind != JsonValue::Kind::kArray) {
      throw std::runtime_error("run document: \"records\" is not an array");
    }
    has_records = true;
    for (JsonValue& r : value.array) doc.records.push_back(parse_record(r));
  }
  if (!has_records) throw std::runtime_error("run document: missing \"records\" array");
  return doc;
}

std::string perf_trajectory_markdown(const std::vector<BenchGeneration>& generations) {
  std::ostringstream os;
  os << "## Perf trajectory\n\n"
     << "Serial wall time (the 1-thread row's `wall_ms`, min-of-reps, milliseconds) per case\n"
     << "across the checked-in bench generations. Wall times are\n"
     << "machine-dependent: read the column-to-column *shape*, not the\n"
     << "absolute numbers, and use `lad diff` for gating.\n\n";
  if (generations.empty()) {
    os << "No BENCH_*.json generations found.\n";
    return os.str();
  }
  // Union of record names in first-seen order, so rows stay stable as
  // generations add cases.
  std::vector<std::string> names;
  for (const auto& gen : generations) {
    for (const auto& r : gen.doc.records) {
      if (std::find(names.begin(), names.end(), r.name) == names.end()) names.push_back(r.name);
    }
  }
  os << "| case |";
  for (const auto& gen : generations) {
    os << " " << gen.label << " (v" << meta_text(gen.doc, "schema_version") << ", "
       << meta_text(gen.doc, "suite") << ") |";
  }
  os << "\n|---|";
  for (std::size_t i = 0; i < generations.size(); ++i) os << "---|";
  os << "\n";
  for (const auto& name : names) {
    os << "| " << name << " |";
    for (const auto& gen : generations) {
      const RunRecord* r = find_record(gen.doc, name);
      const JsonValue* serial = r == nullptr ? nullptr : row_at(*r, 1);
      if (serial != nullptr) {
        os << " " << fmt_ms(serial->find("wall_ms")->number) << " |";
      } else if (r != nullptr && r->deterministic.find("error") != nullptr) {
        os << " error |";
      } else {
        os << " — |";
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
  JsonValue rows = jsonmini::json_array();
  for (const auto& f : findings) {
    const bool regression = f.severity == DiffStatus::kRegression;
    rows.array.push_back(jsonmini::json_object()
                             .add("where", jsonmini::json_string(f.where))
                             .add("field", jsonmini::json_string(f.field))
                             .add("severity", jsonmini::json_string(regression ? "regression"
                                                                               : "mismatch"))
                             .add("detail", jsonmini::json_string(f.detail)));
  }
  return render_json(jsonmini::json_object()
                         .add("exit", jsonmini::json_int(static_cast<int>(status())))
                         .add("compared", jsonmini::json_int(compared))
                         .add("findings", std::move(rows))) +
         "\n";
}

void DiffResult::exact(const std::string& where, const std::string& field,
                       const std::string& baseline, const std::string& candidate) {
  if (baseline == candidate) return;
  findings.push_back({where, field, "baseline '" + baseline + "' != candidate '" + candidate + "'",
                      DiffStatus::kMismatch});
}

void DiffResult::exact_tree(const std::string& where, const std::string& path,
                            const JsonValue& baseline, const JsonValue& candidate) {
  using Kind = JsonValue::Kind;
  if (baseline.kind != candidate.kind) {
    exact(where, path, render_json(baseline), render_json(candidate));
    return;
  }
  if (baseline.kind == Kind::kArray) {
    const std::size_t b = baseline.array.size();
    const std::size_t c = candidate.array.size();
    if (b != c) exact(where, path, std::to_string(b) + " entries", std::to_string(c) + " entries");
    for (std::size_t i = 0; i < std::min(b, c); ++i) {
      exact_tree(where, path + "[" + std::to_string(i) + "]", baseline.array[i],
                 candidate.array[i]);
    }
    return;
  }
  if (baseline.kind != Kind::kObject) {
    // Strings by value, numbers by the token as written, booleans rendered.
    const bool text = baseline.kind == Kind::kString || baseline.kind == Kind::kNumber;
    exact(where, path, text ? baseline.string : render_json(baseline),
          text ? candidate.string : render_json(candidate));
    return;
  }
  const auto at = [&path](const std::string& key) { return path.empty() ? key : path + "." + key; };
  for (const auto& [key, b] : baseline.object) {
    const JsonValue* c = candidate.find(key);
    if (c == nullptr) {
      findings.push_back({where, at(key), "present in baseline, missing from candidate",
                          DiffStatus::kMismatch});
    } else {
      exact_tree(where, at(key), b, *c);
    }
  }
  for (const auto& [key, c] : candidate.object) {
    if (baseline.find(key) == nullptr) {
      findings.push_back({where, at(key), "present in candidate, missing from baseline",
                          DiffStatus::kMismatch});
    }
  }
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

DiffResult diff_run_documents(const RunDocument& baseline, const RunDocument& candidate,
                              const DiffOptions& opts) {
  DiffResult res;
  res.exact("", "suite", meta_text(baseline, "suite"), meta_text(candidate, "suite"));
  for (const RunRecord& base : baseline.records) {
    const RunRecord* cand = find_record(candidate, base.name);
    if (cand == nullptr) {
      res.findings.push_back({base.name, "records",
                              "record present in baseline but missing from candidate",
                              DiffStatus::kMismatch});
      continue;
    }
    res.exact_tree(base.name, "", base.deterministic, cand->deterministic);
    for (const JsonValue& row : base.measured) {
      const double threads = row.find("threads")->number;
      if (const JsonValue* other = row_at(*cand, threads); other != nullptr) {
        res.timing(base.name, "t=" + row.find("threads")->string + " wall_ms",
                   row.find("wall_ms")->number, other->find("wall_ms")->number, opts);
      }
    }
  }
  for (const RunRecord& cand : candidate.records) {
    if (find_record(baseline, cand.name) == nullptr) {
      res.findings.push_back(
          {cand.name, "records",
           "record present in candidate but missing from baseline (rebaseline needed)",
           DiffStatus::kMismatch});
    }
  }
  return res;
}

DiffResult diff_documents(const std::string& baseline, const std::string& candidate,
                          const DiffOptions& opts) {
  return diff_run_documents(parse_run_document(baseline), parse_run_document(candidate), opts);
}

}  // namespace lad::obs
