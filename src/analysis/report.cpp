#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/attribution.hpp"
#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace bernoulli::analysis {

RunReport::RunReport(std::string tool) : tool_(std::move(tool)) {}

RunReport::~RunReport() {
  if (observing_) clear_solve_hooks();
}

void RunReport::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void RunReport::config(const std::string& key, long long value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReport::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void RunReport::add_plan(const std::string& name, std::string explain_json) {
  plans_.emplace_back(name, std::move(explain_json));
}

void RunReport::add_model_check(const std::string& name,
                                const ModelCheckReport& mc) {
  checks_.emplace_back(name, model_check_json(mc));
}

void RunReport::add_comm_check(const std::string& name, const CommCheck& cc) {
  comm_checks_.emplace_back(name, cc);
}

void RunReport::set_critical_path(const CriticalPathReport& cp) {
  critical_path_json_ = critical_path_json(cp);
}

void RunReport::observe_solves() {
  observing_ = true;
  SolveHooks hooks;
  // Every simulated rank notifies concurrently; the recorder serializes.
  hooks.post = [this](const SolveRecord& rec) {
    std::lock_guard<std::mutex> lk(solves_mu_);
    solves_.push_back(rec);
  };
  set_solve_hooks(std::move(hooks));
}

std::string RunReport::json(int indent) const {
  support::JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("bernoulli.run.v1");
  w.key("tool").value(tool_);

  w.key("build").begin_object();
#if defined(__VERSION__)
  w.key("compiler").value(__VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
  w.key("standard").value(static_cast<long long>(__cplusplus));
#if defined(NDEBUG)
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.end_object();

  w.key("config").begin_object();
  for (const auto& [k, v] : config_) w.key(k).value(v);
  w.end_object();

  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics_) w.key(k).value(v);
  w.end_object();

  w.key("plans").begin_object();
  for (const auto& [k, v] : plans_) w.key(k).raw(v);
  w.end_object();

  w.key("model_checks").begin_object();
  for (const auto& [k, v] : checks_) w.key(k).raw(v);
  w.end_object();

  w.key("comm_checks").begin_object();
  for (const auto& [k, cc] : comm_checks_) {
    w.key(k).begin_object();
    w.key("predicted_messages").value(cc.predicted_messages);
    w.key("predicted_bytes").value(cc.predicted_bytes);
    w.key("measured_messages").value(cc.measured_messages);
    w.key("measured_bytes").value(cc.measured_bytes);
    w.key("match").value(cc.match());
    w.end_object();
  }
  w.end_object();

  {
    std::lock_guard<std::mutex> lk(solves_mu_);
    w.key("solves").begin_array();
    // Deterministic order: ranks finish in arbitrary order, so sort.
    std::vector<const SolveRecord*> sorted;
    sorted.reserve(solves_.size());
    for (const auto& s : solves_) sorted.push_back(&s);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const SolveRecord* a, const SolveRecord* b) {
                       return a->rank < b->rank;
                     });
    for (const SolveRecord* s : sorted) {
      w.begin_object();
      w.key("solver").value(s->solver);
      w.key("rank").value(s->rank);
      w.key("nprocs").value(s->nprocs);
      w.key("iterations").value(s->iterations);
      w.key("residual_norm").value(s->residual_norm);
      w.key("converged").value(s->converged);
      w.key("messages").value(s->messages);
      w.key("bytes").value(s->bytes);
      w.key("vtime_s").value(s->vtime_s);
      w.key("plan");
      if (s->plan_explain_json.empty())
        w.raw("null");
      else
        w.raw(s->plan_explain_json);
      w.end_object();
    }
    w.end_array();
  }

  w.key("critical_path");
  if (critical_path_json_.empty())
    w.raw("null");
  else
    w.raw(critical_path_json_);

  // Registry snapshots, taken now (build the report after obs_end()).
  w.key("comm_matrix").raw(support::comm_matrix_json());
  // The metrics registry (support/metrics.hpp) — counts, seconds,
  // gauges, latency and log2 histograms — embedded as its own schema so
  // metrics-only consumers can lift the block out verbatim.
  w.key("metrics_registry").raw(support::metrics_json());
  // Per-level time attribution (support/profile.hpp): a
  // bernoulli.profile.v1 block when the run profiled, "{}" otherwise —
  // the block `bernoulli_report profile` renders and diffs.
  w.key("profile_registry").raw(support::profile_json());
  w.end_object();

  std::string out = w.str();
  // The report must round-trip: a document we cannot re-read is a bug
  // here, not in the consumer. json_parse throws on any violation.
  support::json_parse(out);
  return out;
}

void RunReport::write(const std::string& path) const {
  std::string doc = json();
  std::ofstream out(path, std::ios::binary);
  BERNOULLI_CHECK_MSG(out.good(), "cannot open report file: " << path);
  out << doc << "\n";
  BERNOULLI_CHECK_MSG(out.good(), "short write to report file: " << path);
  std::cerr << "report: " << path << " (bernoulli.run.v1, " << doc.size()
            << " bytes)\n";
}

// ---- reading / diffing ------------------------------------------------

namespace {

using support::JsonValue;

const std::string& doc_schema(const JsonValue& doc) {
  const JsonValue* schema = doc.find("schema");
  BERNOULLI_CHECK_MSG(schema, "document has no schema field");
  return schema->as_string();
}

}  // namespace

std::map<std::string, double> report_metrics(const JsonValue& doc) {
  const std::string& schema = doc_schema(doc);
  BERNOULLI_CHECK_MSG(schema == "bernoulli.run.v1",
                      "cannot extract metrics from schema '" << schema
                                                             << "'");
  const JsonValue* metrics = doc.find("metrics");
  BERNOULLI_CHECK_MSG(metrics && metrics->is_object(),
                      "run report has no metrics object");
  std::map<std::string, double> out;
  for (const auto& [name, v] : metrics->members) out[name] = v.as_number();
  return out;
}

DiffResult diff_reports(const JsonValue& base, const JsonValue& current,
                        double tolerance, const std::string& metric_filter) {
  auto mb = report_metrics(base);
  auto mc = report_metrics(current);
  DiffResult out;
  for (const auto& [name, bval] : mb) {
    auto it = mc.find(name);
    if (it == mc.end()) continue;
    if (!metric_filter.empty() &&
        name.find(metric_filter) == std::string::npos)
      continue;
    MetricDiff d;
    d.name = name;
    d.base = bval;
    d.current = it->second;
    d.higher_is_better = name.find("speedup") != std::string::npos;
    const double denom = std::max(std::fabs(bval), 1e-300);
    d.rel_change = d.higher_is_better ? (bval - d.current) / denom
                                      : (d.current - bval) / denom;
    d.regressed = d.rel_change > tolerance;
    out.compared += 1;
    out.regressions += d.regressed ? 1 : 0;
    out.metrics.push_back(std::move(d));
  }
  return out;
}

std::string diff_text(const DiffResult& d, double tolerance) {
  std::ostringstream os;
  char line[240];
  std::snprintf(line, sizeof(line), "%-55s %12s %12s %9s\n", "metric", "base",
                "current", "change");
  os << line;
  for (const auto& m : d.metrics) {
    std::snprintf(line, sizeof(line), "%-55s %12.4g %12.4g %+8.1f%%%s\n",
                  m.name.c_str(), m.base, m.current,
                  100.0 * (m.higher_is_better ? -m.rel_change : m.rel_change),
                  m.regressed ? "  REGRESSED" : "");
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "%d metrics compared, %d regression(s) at tolerance %.0f%%\n",
                d.compared, d.regressions, 100.0 * tolerance);
  os << line;
  if (d.compared == 0)
    os << "error: the reports share no comparable metrics\n";
  return os.str();
}

namespace {

void render_model_check(std::ostream& os, const std::string& name,
                        const JsonValue& mc) {
  os << "model check: " << name << "\n";
  char line[200];
  std::snprintf(line, sizeof(line), "  %-10s %-9s %14s %14s %10s %8s\n",
                "var", "method", "est_produced", "produced", "ratio",
                "|log2|");
  os << line;
  if (const JsonValue* levels = mc.find("levels"))
    for (const JsonValue& lv : levels->items) {
      std::snprintf(line, sizeof(line),
                    "  %-10s %-9s %14.1f %14lld %10.3f %8.3f\n",
                    lv.find("var")->as_string().c_str(),
                    lv.find("method")->as_string().c_str(),
                    lv.find("est_produced")->as_number(),
                    static_cast<long long>(lv.find("produced")->as_number()),
                    lv.find("ratio")->as_number(),
                    lv.find("abs_log2_error")->as_number());
      os << line;
    }
  std::snprintf(line, sizeof(line), "  error score = %.3f bits\n",
                mc.find("error_score")->as_number());
  os << line;
}

void render_critical_path(std::ostream& os, const JsonValue& cp) {
  const int nprocs = static_cast<int>(cp.find("nprocs")->as_number());
  if (nprocs == 0) {
    os << "critical path: (no machine run recorded)\n";
    return;
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "critical path: %d ranks, total %.3f us, imbalance "
                "max/mean compute %.3f, idle fraction %.3f\n",
                nprocs, cp.find("total_us")->as_number(),
                cp.find("max_over_mean_compute")->as_number(),
                cp.find("idle_fraction")->as_number());
  os << line;
  std::snprintf(line, sizeof(line), "  %4s %12s %12s %12s %12s %12s\n",
                "rank", "finish_us", "compute_us", "comm_us", "idle_us",
                "slack_us");
  os << line;
  for (const JsonValue& rb : cp.find("ranks")->items) {
    std::snprintf(line, sizeof(line),
                  "  %4d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                  static_cast<int>(rb.find("rank")->as_number()),
                  rb.find("finish_us")->as_number(),
                  rb.find("compute_us")->as_number(),
                  rb.find("comm_us")->as_number(),
                  rb.find("idle_us")->as_number(),
                  rb.find("slack_us")->as_number());
    os << line;
  }
  const auto& steps = cp.find("steps")->items;
  os << "  path (" << steps.size() << " steps):\n";
  for (const JsonValue& s : steps) {
    std::snprintf(line, sizeof(line), "    [%10.3f, %10.3f] rank %d  %s",
                  s.find("t0_us")->as_number(), s.find("t1_us")->as_number(),
                  static_cast<int>(s.find("rank")->as_number()),
                  s.find("kind")->as_string().c_str());
    os << line;
    if (const JsonValue* from = s.find("from_rank"))
      os << " (rank " << static_cast<int>(from->as_number()) << ")";
    os << "\n";
  }
}

}  // namespace

std::string report_text(const JsonValue& doc) {
  std::ostringstream os;
  const std::string& schema = doc_schema(doc);
  BERNOULLI_CHECK_MSG(schema == "bernoulli.run.v1",
                      "cannot render schema '" << schema << "'");
  os << "run report: " << doc.find("tool")->as_string() << "\n";
  if (const JsonValue* build = doc.find("build"))
    if (const JsonValue* cc = build->find("compiler"))
      os << "  build: " << cc->as_string() << "\n";
  if (const JsonValue* config = doc.find("config"))
    for (const auto& [k, v] : config->members)
      os << "  config: " << k << " = " << v.as_string() << "\n";
  os << "\n";

  if (const JsonValue* metrics = doc.find("metrics"))
    if (!metrics->members.empty()) {
      os << "metrics:\n";
      for (const auto& [name, v] : metrics->members) {
        char line[200];
        std::snprintf(line, sizeof(line), "  %-55s %12.6g\n", name.c_str(),
                      v.as_number());
        os << line;
      }
      os << "\n";
    }

  if (const JsonValue* checks = doc.find("model_checks"))
    for (const auto& [name, mc] : checks->members) {
      render_model_check(os, name, mc);
      os << "\n";
    }

  if (const JsonValue* comm = doc.find("comm_checks"))
    for (const auto& [name, cc] : comm->members) {
      os << "comm check: " << name << ": predicted "
         << static_cast<long long>(
                cc.find("predicted_messages")->as_number())
         << " msgs / "
         << static_cast<long long>(cc.find("predicted_bytes")->as_number())
         << " B, measured "
         << static_cast<long long>(cc.find("measured_messages")->as_number())
         << " msgs / "
         << static_cast<long long>(cc.find("measured_bytes")->as_number())
         << " B"
         << (cc.find("match")->boolean ? " (match)" : " (MISMATCH)") << "\n";
    }

  if (const JsonValue* solves = doc.find("solves"))
    if (!solves->items.empty()) {
      os << "solves (" << solves->items.size() << " rank-records):\n";
      for (const JsonValue& s : solves->items)
        os << "  rank " << static_cast<int>(s.find("rank")->as_number())
           << "/" << static_cast<int>(s.find("nprocs")->as_number()) << " "
           << s.find("solver")->as_string() << ": "
           << static_cast<int>(s.find("iterations")->as_number())
           << " iters, "
           << static_cast<long long>(s.find("messages")->as_number())
           << " msgs, "
           << static_cast<long long>(s.find("bytes")->as_number())
           << " bytes\n";
      os << "\n";
    }

  if (const JsonValue* cp = doc.find("critical_path"))
    if (cp->is_object()) render_critical_path(os, *cp);

  if (const JsonValue* prof = doc.find("profile_registry"))
    if (profile_block_nonempty(*prof)) os << "\n" << profile_table_text(*prof);
  return os.str();
}

}  // namespace bernoulli::analysis
