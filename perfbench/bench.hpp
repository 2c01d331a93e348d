// Shared declarations of the benchmark binary: the run context, the
// result record, the canonical metric lists and the three pipeline phases
// (spmv_ladder.cpp, serve_openloop.cpp, cg_solve.cpp). README.md in this
// directory defines every workload and metric.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "harness.hpp"

namespace perfbench {

/// The four ladder formats. Per-layer metric names carry these suffixes.
inline const std::vector<std::string>& ladder_formats() {
  static const std::vector<std::string> f{"csr", "ccs", "sell", "bcsr"};
  return f;
}

/// A metric the benchmark emits, as BENCHMARK.json lists it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// BENCHMARK.json's two metric lists, the only place the metric names and
/// units are defined. An untraced run emits exactly `end_to_end`, a traced
/// run exactly `per_layer`; a measured metric in neither list is an error.
struct MetricLists {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};
/// Reads the lists; throws when the file is missing or malformed.
MetricLists load_metric_lists(const std::string& path);

/// One workload: an input family every phase draws its matrices from, plus
/// the fixed serving rates for that family. Rates are constants, never
/// derived from a run.
struct Workload {
  std::string name;
  double serve_nominal_rate = 0;  // requests/s, about half the capacity
};
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

/// Seeded input generators (inputs.cpp).
struct CgProblem {
  bernoulli::formats::Csr a;
  std::vector<bernoulli::index_t> color_ptr;  // empty: block rows
  bernoulli::Vector b;
};
/// The large (> 1M entries) matrix the engine ladder runs.
bernoulli::formats::Coo ladder_matrix(const Workload& w, std::uint64_t seed);
/// BCSR block size for the family (the natural block where there is one).
bernoulli::index_t ladder_block(const Workload& w);
/// A family matrix with about `target_nnz` entries (serving).
bernoulli::formats::Csr family_matrix(const Workload& w, long long target_nnz,
                                      std::uint64_t seed);
/// The SPD system the CG phase solves.
CgProblem cg_problem(const Workload& w, std::uint64_t seed);

/// Median microseconds of one direct LinkedRunner::run of y = A x (y
/// zeroed first), compiled as every ladder cell is (spmv_ladder.cpp).
double linked_run_p50_us(const bernoulli::formats::Csr& a, const bernoulli::Vector& x);

/// Measurement slices the phases interleave in.
constexpr int kEpochs = 16;

/// Everything a phase reads and writes.
struct Context {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool trace = false;
  int threads = 1;      // T: ParallelRunner width and CG ranks
  int nproc = 1;

  // Calibration block (same run).
  double stream_gbps = 0;           // 1-thread STREAM triad
  double stream_gbps_threaded = 0;  // T-thread STREAM triad
  double pool_dispatch_us = 0;      // empty run_slots(T) round trip

  Tracer tracer;
  std::map<std::string, double> metrics;
  // The samples behind each sampled metric, in time order (run record).
  std::map<std::string, std::vector<double>> series;
  long long attempted = 0;
  long long failed = 0;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Sets a cost metric to the q-quantile (nearest rank; 0 is the
  /// minimum) of its samples, interleaved over the whole run, and keeps
  /// them for the run record. The host alternates between a fast and a
  /// ~1.6x slower mode for seconds at a time and the share of each drifts
  /// over minutes (README.md, "Noise"); a low quantile follows the fast
  /// mode whenever that share of the run was fast. The lower the quantile,
  /// the more samples it needs: see the callers.
  void set_samples(const std::string& name, std::vector<double> samples, double q) {
    metrics[name] = quantile(samples, q);
    series[name] = std::move(samples);
  }
  /// Counts one oracle-checked operation; logs and counts a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) std::fprintf(stderr, "ORACLE FAILURE: %s\n", what.c_str());
    }
  }
};

/// One front end of the pipeline. main.cpp calls setup() on every phase,
/// then epoch() on each in turn, kEpochs times, then finish().
/// Interleaving the phases in short epochs spreads every metric over the
/// whole run, so all of them see the same mix of host speed modes (see
/// README.md, "Noise").
class Phase {
 public:
  virtual ~Phase() = default;
  /// Generates inputs (untimed), then sets up (timed, repeated); returns
  /// the median set-up seconds.
  virtual double setup() = 0;
  /// One measurement slice of about `budget_s` seconds.
  virtual void epoch(int e, double budget_s) = 0;
  /// Aggregates the epochs into metrics.
  virtual void finish() = 0;
};

std::unique_ptr<Phase> make_spmv_ladder(Context& ctx);
std::unique_ptr<Phase> make_serve_openloop(Context& ctx);
std::unique_ptr<Phase> make_cg_solve(Context& ctx);

}  // namespace perfbench
