// `lad lint` driver: source collection, pragma suppression, baseline diff,
// and report rendering (DESIGN.md §10).
//
// The flow mirrors the bench-regression sentinel (obs/diff.hpp): a
// deterministic analysis produces a machine-readable document, a checked-in
// baseline grandfathers known findings, and the exit code is the contract
// CI gates on:
//
//   0 — no findings beyond the baseline
//   2 — usage error (unknown rule/flag, unreadable root or baseline)
//   3 — new findings (not covered by the baseline)
//   4 — parse failure (a source file the scanner cannot lex)
//
// Baseline matching is by (file, rule) multiset — line numbers drift with
// every edit, so a baseline entry forgives one finding of that rule in that
// file wherever it currently sits. Rebaselining mirrors DESIGN.md §9.7:
// rerun with --write-baseline, review the diff, commit.
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace lad::lint {

/// One source file, by content — the unit tests feed snippets directly and
/// the CLI feeds files read from disk.
struct MemSource {
  std::string path;  // root-relative, '/'-separated
  std::string text;
};

struct LintReport {
  struct Item {
    Finding finding;
    bool grandfathered = false;  // covered by a baseline entry
  };

  int files_scanned = 0;
  int suppressed = 0;  // findings silenced by allow() pragmas
  std::vector<Item> items;

  int new_count() const;
  bool clean() const { return new_count() == 0; }

  std::string to_text() const;
  std::string to_json() const;
  /// Baseline document covering every current finding (for --write-baseline).
  std::string to_baseline_json() const;
};

/// Runs every enabled rule over `sources`. `baseline_json` is a baseline
/// document ("" = empty baseline). Throws LintParseError when a source
/// cannot be lexed and std::runtime_error when the baseline is malformed.
LintReport run_lint(const std::vector<MemSource>& sources, const RuleConfig& cfg,
                    const std::string& baseline_json = "");

/// Reads the repository's lintable sources under `root`: every .cpp/.hpp/.h
/// beneath root/src and root/tools, sorted by path. Throws
/// std::runtime_error when root/src does not exist or a file is unreadable.
std::vector<MemSource> collect_repo_sources(const std::string& root);

/// RuleConfig wired to the live obs catalogs: metric names from the
/// MetricsRegistry core catalog, span names from obs::span_name_catalog().
RuleConfig repo_rule_config();

}  // namespace lad::lint
