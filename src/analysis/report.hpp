// Self-describing run reports (schema "bernoulli.run.v1") and the
// report-diff machinery behind tools/bernoulli_report.
//
// A run report is the one-file answer to "what did this run do?": it
// aggregates the observability artifacts that previously lived in
// separate bench epilogues — plan EXPLAIN JSON, the counter snapshot,
// histogram renders, the comm matrix, a critical-path summary, the
// cost-model check table, per-rank solve records, and build/config
// metadata — into a single JSON document written through
// support/json_writer and checked to round-trip through
// support/json_reader. Benches emit one with --report=<file>.
//
// Reports are deliberately timestamp-free: two runs of the same binary on
// the same input differ only where the measurement differs, so reports
// diff cleanly.
//
// Document shape:
//   {"schema": "bernoulli.run.v1", "tool": "...",
//    "build": {"compiler": ..., "standard": ..., "assertions": ...},
//    "config": {...},            // tool flags and parameters, as strings
//    "metrics": {"name": 1.5},   // flat numeric metrics; diffable
//    "plans": {"name": <bernoulli.explain.v1>},
//    "model_checks": {"name": <model_check_json>},
//    "comm_checks": {"name": {"predicted_*": n, "measured_*": n}},
//    "solves": [<SolveRecord>...],
//    "critical_path": <critical_path_json> | null,
//    "comm_matrix": {...},
//    "metrics_registry": <bernoulli.metrics.v2>,  // every count, time,
//                        // gauge and histogram (support/metrics.hpp)
//    "profile_registry": <bernoulli.profile.v1> | {}}  // per-level time
//                        // attribution (support/profile.hpp); {} when the
//                        // run never enabled profiling
//
// Diffing. diff_reports() compares the flat metrics of two reports (the
// other sections are context, not comparison keys). Metric direction is
// inferred from the name: metrics containing "speedup" are
// higher-is-better, everything else (times, ns_per_nnz, error scores) is
// lower-is-better. A metric regresses when it worsens by more than
// `tolerance` relative; the CLI exits nonzero on any regression — and
// also when the reports share NO metrics, so a renamed metric cannot
// silently pass a gate. Only bernoulli.run.v1 documents are read; any
// other schema is rejected.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/hooks.hpp"
#include "analysis/model_check.hpp"
#include "support/json_reader.hpp"

namespace bernoulli::analysis {

/// Predicted-vs-measured comm traffic for one phase (the estimate the
/// inspector's schedule implies vs. what CommStats booked).
struct CommCheck {
  long long predicted_messages = 0;
  long long predicted_bytes = 0;
  long long measured_messages = 0;
  long long measured_bytes = 0;
  bool match() const {
    return predicted_messages == measured_messages &&
           predicted_bytes == measured_bytes;
  }
};

/// Accumulates one run's artifacts, then renders/writes the document.
/// json()/write() snapshot the counter/histogram/comm-matrix registries
/// at call time, so build the report AFTER support::obs_end().
class RunReport {
 public:
  explicit RunReport(std::string tool);
  ~RunReport();  // uninstalls the solve hooks if observe_solves() ran

  RunReport(const RunReport&) = delete;
  RunReport& operator=(const RunReport&) = delete;

  /// Tool configuration (flags, parameters); rendered as strings.
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, long long value);

  /// Flat numeric metric — the diffable surface of the report.
  void metric(const std::string& name, double value);

  /// Attaches a plan's EXPLAIN document (bernoulli.explain.v1 text).
  void add_plan(const std::string& name, std::string explain_json);

  void add_model_check(const std::string& name, const ModelCheckReport& mc);
  void add_comm_check(const std::string& name, const CommCheck& cc);
  void set_critical_path(const CriticalPathReport& cp);

  /// Installs process-global solve hooks (analysis/hooks.hpp) that record
  /// every rank's SolveRecord into this report, thread-safely. Replaced
  /// by the next observe_solves() call; uninstalled by the destructor.
  void observe_solves();

  /// The bernoulli.run.v1 document. Validated: the result of json() is
  /// re-parsed through support/json_reader before being returned/written.
  std::string json(int indent = 2) const;

  /// Writes json() to `path` and logs one line to stderr.
  void write(const std::string& path) const;

 private:
  std::string tool_;
  std::vector<std::pair<std::string, std::string>> config_;   // key, value
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> plans_;    // name, json
  std::vector<std::pair<std::string, std::string>> checks_;   // name, json
  std::vector<std::pair<std::string, CommCheck>> comm_checks_;
  std::string critical_path_json_;  // empty = null
  bool observing_ = false;
  mutable std::mutex solves_mu_;
  std::vector<SolveRecord> solves_;
};

// ---- reading / diffing (tools/bernoulli_report) -----------------------

/// Extracts the flat metric map (the "metrics" object) from a parsed
/// bernoulli.run.v1 report. Throws on any other document.
std::map<std::string, double> report_metrics(const support::JsonValue& doc);

struct MetricDiff {
  std::string name;
  double base = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  // signed; positive = worse
  bool higher_is_better = false;
  bool regressed = false;
};

struct DiffResult {
  std::vector<MetricDiff> metrics;  // common metrics, sorted by name
  int compared = 0;
  int regressions = 0;
  /// Zero common metrics is a FAILURE, not a pass — a renamed metric must
  /// not silently disable the gate.
  bool ok() const { return compared > 0 && regressions == 0; }
};

/// Compares `current` against `base`. `metric_filter`, when non-empty,
/// restricts the comparison to metrics whose name contains it.
DiffResult diff_reports(const support::JsonValue& base,
                        const support::JsonValue& current, double tolerance,
                        const std::string& metric_filter = "");

/// One row per compared metric plus a summary line.
std::string diff_text(const DiffResult& d, double tolerance);

/// Human rendering of a parsed bernoulli.run.v1 document.
std::string report_text(const support::JsonValue& doc);

}  // namespace bernoulli::analysis
