#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/telemetry.hpp"

namespace lad::lint {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Baseline document: the same hand-rolled JSON subset discipline as
// obs/diff.cpp — we parse exactly what our own writer emits and reject
// everything else loudly.

struct BaselineEntry {
  std::string file;
  std::string rule;
};

class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out += s_[i_++];
    }
    expect('"');
    return out;
  }
  long long number() {
    ws();
    std::size_t end = i_;
    while (end < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[end])) != 0 ||
                               s_[end] == '-')) {
      ++end;
    }
    if (end == i_) fail("expected number");
    const long long v = std::stoll(s_.substr(i_, end - i_));
    i_ = end;
    return v;
  }
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("lint baseline: " + what + " at offset " + std::to_string(i_));
  }
  bool at_end() {
    ws();
    return i_ >= s_.size();
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

std::vector<BaselineEntry> parse_baseline(const std::string& text) {
  std::vector<BaselineEntry> out;
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) return out;
  MiniJson j(text);
  j.expect('{');
  bool first = true;
  while (!j.eat('}')) {
    if (!first) j.expect(',');
    first = false;
    const std::string key = j.string();
    j.expect(':');
    if (key == "schema") {
      if (j.number() != 1) j.fail("unsupported schema");
    } else if (key == "findings") {
      j.expect('[');
      while (!j.eat(']')) {
        if (!out.empty()) j.expect(',');
        j.expect('{');
        BaselineEntry e;
        bool efirst = true;
        while (!j.eat('}')) {
          if (!efirst) j.expect(',');
          efirst = false;
          const std::string k = j.string();
          j.expect(':');
          if (k == "file") {
            e.file = j.string();
          } else if (k == "rule") {
            e.rule = j.string();
          } else if (k == "line") {
            j.number();  // informational; not part of the match key
          } else {
            j.fail("unknown finding key '" + k + "'");
          }
        }
        if (e.file.empty() || e.rule.empty()) j.fail("finding needs file and rule");
        out.push_back(e);
      }
    } else {
      j.fail("unknown key '" + key + "'");
    }
  }
  if (!j.at_end()) j.fail("trailing content");
  return out;
}

}  // namespace

int LintReport::new_count() const {
  return static_cast<int>(
      std::count_if(items.begin(), items.end(), [](const Item& i) { return !i.grandfathered; }));
}

std::string LintReport::to_text() const {
  std::ostringstream os;
  for (const auto& it : items) {
    os << it.finding.file << ":" << it.finding.line << ": [" << it.finding.rule << "] "
       << it.finding.message << (it.grandfathered ? " (grandfathered)" : "") << "\n";
  }
  os << "lint: " << files_scanned << " file(s) scanned, " << items.size() << " finding(s) ("
     << new_count() << " new, " << items.size() - static_cast<std::size_t>(new_count())
     << " grandfathered, " << suppressed << " suppressed by pragma)\n";
  return os.str();
}

std::string LintReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"files_scanned\": " << files_scanned
     << ",\n  \"new_findings\": " << new_count() << ",\n  \"suppressed\": " << suppressed
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& it = items[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(it.finding.file)
       << "\", \"line\": " << it.finding.line << ", \"rule\": \"" << it.finding.rule
       << "\", \"new\": " << (it.grandfathered ? "false" : "true") << ", \"message\": \""
       << json_escape(it.finding.message) << "\"}";
  }
  os << (items.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::string LintReport::to_baseline_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n  \"findings\": [";
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(items[i].finding.file)
       << "\", \"rule\": \"" << items[i].finding.rule
       << "\", \"line\": " << items[i].finding.line << "}";
  }
  os << (items.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

LintReport run_lint(const std::vector<MemSource>& sources, const RuleConfig& cfg,
                    const std::string& baseline_json) {
  std::vector<ScannedFile> files;
  files.reserve(sources.size());
  for (const auto& s : sources) files.push_back(scan_source(s.path, s.text));
  std::sort(files.begin(), files.end(),
            [](const ScannedFile& a, const ScannedFile& b) { return a.path < b.path; });

  LintReport report;
  report.files_scanned = static_cast<int>(files.size());

  std::vector<Finding> findings;
  std::map<std::string, const ScannedFile*> by_path;
  for (const auto& f : files) {
    by_path.emplace(f.path, &f);
    auto per_file = run_file_rules(f, cfg);
    findings.insert(findings.end(), per_file.begin(), per_file.end());
  }
  auto layer = run_layer_rules(files, cfg);
  findings.insert(findings.end(), layer.begin(), layer.end());

  // Pragma suppression (`lint-pragma` findings are never suppressible —
  // they report broken pragmas themselves).
  std::vector<Finding> kept;
  for (auto& f : findings) {
    const ScannedFile* sf = by_path.at(f.file);
    const auto it = sf->allow.find(f.line);
    if (f.rule != "lint-pragma" && it != sf->allow.end() && it->second.count(f.rule) != 0) {
      ++report.suppressed;
    } else {
      kept.push_back(std::move(f));
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });

  // Baseline: each (file, rule) entry forgives one finding of that rule in
  // that file, wherever its line drifted to.
  std::map<std::pair<std::string, std::string>, int> grandfathered;
  for (const auto& e : parse_baseline(baseline_json)) ++grandfathered[{e.file, e.rule}];
  for (auto& f : kept) {
    auto it = grandfathered.find({f.file, f.rule});
    const bool old = it != grandfathered.end() && it->second > 0;
    if (old) --it->second;
    report.items.push_back({std::move(f), old});
  }
  return report;
}

std::vector<MemSource> collect_repo_sources(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  if (!fs::is_directory(base / "src")) {
    throw std::runtime_error("lint root '" + root + "' has no src/ directory");
  }
  std::vector<MemSource> out;
  for (const char* top : {"src", "tools"}) {
    const fs::path dir = base / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in.good()) {
        throw std::runtime_error("cannot read " + entry.path().string());
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      out.push_back({fs::relative(entry.path(), base).generic_string(), ss.str()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MemSource& a, const MemSource& b) { return a.path < b.path; });
  return out;
}

RuleConfig repo_rule_config() {
  RuleConfig cfg;
  obs::core();  // materialize the catalog block
  cfg.metric_catalog = obs::MetricsRegistry::instance().names();
  cfg.span_catalog = obs::span_name_catalog();
  return cfg;
}

}  // namespace lad::lint
