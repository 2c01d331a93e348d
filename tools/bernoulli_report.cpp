// bernoulli_report: render and diff bernoulli.run.v1 run reports.
//
// Usage:
//   bernoulli_report <report.json>
//       Render the report (config, metrics, model checks, comm checks,
//       solves, critical path, per-level profile) as text.
//   bernoulli_report --diff <base.json> <new.json>
//                    [--tol=X | --tolerance=X] [--metrics=<substr>]
//       Compare the flat metrics of two reports.
//   bernoulli_report profile <report.json>
//       Render the report's per-level time-attribution table
//       (profile_registry, schema bernoulli.profile.v1).
//   bernoulli_report profile <base.json> <new.json>
//       Top time movements between two profiled reports (next - base).
//
// Exit codes (all modes):
//   0  success; for --diff, no metric worsened beyond tolerance
//   1  regression detected, zero common metrics, or an input failed to
//      read/parse (a broken comparison must fail loudly, not skip)
//   2  usage error (unknown flag, wrong arity, bad tolerance)
//
// The perf gate itself lives in the benches' --check (bench_table2_executor
// gates same-run ratios); this tool explains and compares their reports.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attribution.hpp"
#include "analysis/report.hpp"
#include "support/json_reader.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: bernoulli_report <report.json>\n"
         "       bernoulli_report --diff <base.json> <new.json>"
         " [--tol=X] [--metrics=<substr>]\n"
         "       bernoulli_report profile <report.json> [<new.json>]\n"
         "exit codes: 0 ok; 1 regression / no common metrics / read or\n"
         "parse failure; 2 usage error. --tolerance=X is an alias for\n"
         "--tol=X (relative, default 0.25).\n";
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool parse_doc(const std::string& path, bernoulli::support::JsonValue* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::cerr << "bernoulli_report: cannot read " << path << "\n";
    return false;
  }
  try {
    *out = bernoulli::support::json_parse(text);
  } catch (const std::exception& e) {
    std::cerr << "bernoulli_report: " << path << ": " << e.what() << "\n";
    return false;
  }
  return true;
}

/// The profile_registry block of a report document, or null when the
/// document has none or the run never enabled profiling.
const bernoulli::support::JsonValue* profile_block(
    const bernoulli::support::JsonValue& doc) {
  const bernoulli::support::JsonValue* prof = doc.find("profile_registry");
  if (!prof || !bernoulli::analysis::profile_block_nonempty(*prof))
    return nullptr;
  return prof;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bernoulli;

  std::string mode = "render";
  double tolerance = 0.25;
  std::string metric_filter;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      mode = "diff";
    } else if (i == 1 && arg == "profile") {
      mode = arg;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--tolerance=", 0) == 0 ||
               arg.rfind("--tol=", 0) == 0) {
      const std::string v = arg.substr(arg.find('=') + 1);
      try {
        tolerance = std::stod(v);
      } catch (const std::exception&) {
        std::cerr << "bernoulli_report: bad tolerance '" << arg << "'\n";
        return 2;
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metric_filter = arg.substr(10);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "bernoulli_report: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (mode == "profile") {
    if (paths.size() != 1 && paths.size() != 2) return usage();
  } else {
    const std::size_t want = mode == "render" ? 1 : 2;
    if (paths.size() != want) return usage();
  }

  try {
    if (mode == "render") {
      support::JsonValue doc;
      if (!parse_doc(paths[0], &doc)) return 1;
      std::cout << analysis::report_text(doc);
      return 0;
    }
    if (mode == "diff") {
      support::JsonValue base, current;
      if (!parse_doc(paths[0], &base) || !parse_doc(paths[1], &current))
        return 1;
      analysis::DiffResult d =
          analysis::diff_reports(base, current, tolerance, metric_filter);
      std::cout << analysis::diff_text(d, tolerance);
      return d.ok() ? 0 : 1;
    }
    // mode == "profile": one report's table, or the movement between two.
    support::JsonValue doc;
    if (!parse_doc(paths[0], &doc)) return 1;
    const support::JsonValue* prof = profile_block(doc);
    if (!prof) {
      std::cerr << "bernoulli_report: " << paths[0]
                << " embeds no per-level profile (run the bench with "
                   "--profile=<file> to record one)\n";
      return 1;
    }
    if (paths.size() == 1) {
      std::cout << analysis::profile_table_text(*prof);
      return 0;
    }
    support::JsonValue next_doc;
    if (!parse_doc(paths[1], &next_doc)) return 1;
    const support::JsonValue* next = profile_block(next_doc);
    if (!next) {
      std::cerr << "bernoulli_report: " << paths[1]
                << " embeds no per-level profile\n";
      return 1;
    }
    const std::string moved =
        analysis::profile_diff_text(*prof, *next, /*top_n=*/10);
    std::cout << (moved.empty() ? "profile: no time moved\n" : moved);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bernoulli_report: " << e.what() << "\n";
    return 1;
  }
}
