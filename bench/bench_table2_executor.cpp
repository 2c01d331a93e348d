// Table 2: numerical computation times (executor, 10 CG iterations).
//
// Paper setup: parallel CG with diagonal preconditioning on a synthetic
// 3-D 7-point grid problem with 5 degrees of freedom, weak-scaled
// (constant rows per processor), P = 2..64. Compared implementations:
//   BlockSolve        hand-written library code (comm/compute overlap)
//   Bernoulli-Mixed   compiler output from the mixed local/global spec —
//                     paper: 2-4% slower than BlockSolve
//   Bernoulli         compiler output from the fully data-parallel spec —
//                     paper: ~10% slower than Bernoulli-Mixed (redundant
//                     global-to-local indirection on every x access)
//
// `--report=<file>` writes a bernoulli.run.v1 run report
// (analysis/report.hpp). On the default (variant) axis it runs the
// reduced traced measurement and the report carries per-variant metrics,
// per-variant exchange comm-checks, and the critical path through the
// last machine run; on the --engine axis it carries the exec.* metrics
// (same names tools/bernoulli_report derives from a
// bernoulli.bench.exec.v1 snapshot, so the two diff against each other)
// plus a cost-model check per case.
//
// `--trace=<file>` / `--comm-matrix` run a reduced traced measurement
// (P=4, all three variants): the trace gets one track per rank on virtual
// time with send->recv flow arrows, and support::obs_end asserts that the
// send-span byte args in the exported JSON, the comm matrix, and the
// comm.<phase>.* counters all equal the CommStats totals exactly.
//
// `--engine=interpreted|linked|specialized|kernel|all` switches to the
// sequential EXECUTION-ENGINE comparison: the same compiled SpMV plan on
// the Table-2 matrices (CRS and CCS), run through the tree-walking
// interpreter (execute_interpreted), the linked cursor engine
// (compiler/link.hpp), the runtime-specialized dlopen backend
// (compiler/specialize.hpp; falls back to linked with a note when the
// host has no C toolchain) and the hand-tuned format kernel
// (formats::spmv_add), reported as wall-clock ns per stored entry. Any
// other --engine value fails with a usage message. Extra flags:
//   --small               one-processor problem only (CI smoke)
//   --check               exit 1 unless linked beats interpreted per case;
//                         the specialized engine (when it loads) must also
//                         reproduce the serial linked run bitwise
//   --threads=N           additionally measure the multi-threaded linked
//                         engine (compiler::ParallelRunner) and, for CRS,
//                         a row-chunked threaded format kernel; reported
//                         as linked_tN / kernel_tN engine entries. With
//                         --check the threaded run must also be bitwise
//                         identical to the serial linked run with exactly
//                         matching executor.* counter deltas, and every
//                         CRS, CCS, BCSR and SELL cell must fan out.
//   --validate-exec-json=FILE   parse FILE with support/json_reader.hpp
//                               and check the v1 schema (no measuring)
//
// `--metrics=<file>` (any axis) writes the serving-metrics registry as
// Prometheus text at exit (bench::Options::finish). With --check the
// engine axis also reconciles the serving metrics: one serial linked run
// books exactly one execute.latency sample whose nanoseconds equal the
// execute.wall_ns rate (same integer, same flush site) and whose model
// bytes/flops equal the link-time PlanFootprint; threaded runs must match
// the serial run on the deterministic subset (sample count, model
// traffic) exactly. On the engine axis --report also carries a roofline
// section: every measured rung's footprint/seconds against the simulated
// machine's CostModel peaks.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "analysis/attribution.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/report.hpp"
#include "common.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/bsr.hpp"
#include "formats/ccs.hpp"
#include "formats/sell.hpp"
#include "runtime/machine.hpp"
#include "support/counters.hpp"
#include "support/histogram.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/json_reader.hpp"
#include "support/rng.hpp"
#include "support/text_table.hpp"
#include "support/thread_pool.hpp"
#include "support/trace_cli.hpp"

namespace {

using namespace bernoulli;
using spmd::Variant;

int run_table() {
  std::cout << "=== Table 2: numerical computation times, 10 CG iterations ==="
            << "\n(virtual seconds on the simulated machine; diff columns"
            << "\n relative to the hand-written BlockSolve baseline)\n\n";

  TextTable table({"P", "rows/proc", "BlockSolve (s)", "Bern-Mixed (s)",
                   "diff", "Bernoulli (s)", "diff"});
  const int iterations = 10;
  for (int P : {2, 4, 8, 16, 32, 64}) {
    bench::Problem prob = bench::build_problem(P);
    auto bs = bench::measure_variant_calibrated(prob, P, Variant::kBlockSolve, iterations);
    auto mixed =
        bench::measure_variant_calibrated(prob, P, Variant::kBernoulliMixed, iterations);
    auto naive =
        bench::measure_variant_calibrated(prob, P, Variant::kBernoulli, iterations);

    auto pct = [](double v, double base) {
      std::ostringstream os;
      os.setf(std::ios::fixed);
      os.precision(1);
      os << (v / base - 1.0) * 100.0 << "%";
      return os.str();
    };
    table.new_row();
    table.add(P);
    table.add(static_cast<long long>(prob.matrix.rows() / P));
    table.add(bs.executor_s, 4);
    table.add(mixed.executor_s, 4);
    table.add(pct(mixed.executor_s, bs.executor_s));
    table.add(naive.executor_s, 4);
    table.add(pct(naive.executor_s, bs.executor_s));
    std::cerr << "  [P=" << P << " done]\n";
  }
  std::cout << table.str()
            << "\nExpected shape (paper): Bernoulli-Mixed within a few "
               "percent of BlockSolve;\nBernoulli ~10% slower than Mixed "
               "(extra indirection); times roughly flat in P\n(weak "
               "scaling).\n";
  return 0;
}

int run_traced(const support::ObsOptions& obs) {
  const int P = 4;
  const int iterations = 10;
  std::cout << "=== Table 2 traced run: P=" << P << ", " << iterations
            << " CG iterations, all variants ===\n";
  analysis::RunReport report("bench_table2_executor");
  report.config("axis", "variants");
  report.config("P", static_cast<long long>(P));
  report.config("iterations", static_cast<long long>(iterations));
  if (!obs.report_path.empty()) report.observe_solves();
  support::obs_begin(obs);
  bench::Problem prob = bench::build_problem(P);
  long long commstats_messages = 0;
  long long commstats_bytes = 0;
  for (Variant v :
       {Variant::kBlockSolve, Variant::kBernoulliMixed, Variant::kBernoulli}) {
    auto t = bench::measure_variant_calibrated(prob, P, v, iterations);
    commstats_messages += t.total_messages;
    commstats_bytes += t.total_bytes;
    std::cout << "  " << spmd::variant_name(v) << ": inspector "
              << t.inspector_s << " s, executor " << t.executor_s
              << " s (virtual)\n";
    if (!obs.report_path.empty()) {
      std::string base = std::string("table2.P") + std::to_string(P) + "." +
                         spmd::variant_name(v);
      report.metric(base + ".inspector_s", t.inspector_s);
      report.metric(base + ".executor_s", t.executor_s);
      analysis::CommCheck cc;
      cc.predicted_messages = t.predicted_exchange_messages * t.exchanges;
      cc.predicted_bytes = t.predicted_exchange_bytes * t.exchanges;
      cc.measured_messages = t.executor_messages;
      cc.measured_bytes = t.executor_bytes;
      report.add_comm_check(base + ".exchange", cc);
    }
  }
  // Aborts nonzero if the trace/matrix/counters disagree with CommStats.
  support::obs_end(obs, commstats_messages, commstats_bytes);
  if (!obs.report_path.empty()) {
    // The trace buffers survive trace_stop(); the critical path analyzes
    // the LAST machine run (the timed executor run of the last variant).
    report.set_critical_path(analysis::critical_path_current());
    report.write(obs.report_path);
  }
  return 0;
}

// ---- Execution-engine axis ------------------------------------------

struct EngineCase {
  std::string matrix;
  std::string format;  // "csr" | "ccs" | "bcsr" | "sell"
  index_t rows = 0;
  index_t nnz = 0;
  // Best-of-k wall seconds for one full SpMV, per engine (negative when
  // the engine was not measured).
  double interpreted_s = -1.0;
  double linked_s = -1.0;
  double kernel_s = -1.0;
  // Runtime-specialized dlopen backend (compiler/specialize.hpp).
  // Negative when not requested OR when the kernel could not be built —
  // specialized_note then says why (toolchain missing, shape refused).
  double specialized_s = -1.0;
  std::string specialized_note;
  // Under --check: the specialized run reproduced the serial linked run
  // bitwise with identical executor.* and fanout deltas.
  bool specialized_check_ok = true;
  // Threaded engines (--threads=N; negative when not measured). linked_t
  // is compiler::ParallelRunner on the same LinkedPlan; kernel_t is a
  // row-chunked CRS spmv on the shared pool (CRS only). parallel records
  // whether linked_t actually fanned out (legal plan, run not serialized).
  double linked_t_s = -1.0;
  double kernel_t_s = -1.0;
  bool parallel = false;
  // Under --check: threaded linked run reproduced the serial linked run
  // bitwise with identical executor.* and fanout deltas.
  bool thread_check_ok = true;
  // Under --check: the serving-metrics registry reconciled across one
  // serial linked run (latency samples == runs, hist sum == wall_ns rate,
  // model bytes/flops == footprint).
  bool metrics_check_ok = true;
  // Under --check with --profile: the per-level self times the profiler
  // committed for one serial linked run sum to that run's execute.wall_ns
  // within the documented tolerance (docs/OBSERVABILITY.md).
  bool profile_check_ok = true;
  // Link-time data-movement footprint of the SpMV plan (exact for these
  // flat CSR/CCS cases); feeds the report's roofline section and the
  // --check model-traffic reconciliation.
  compiler::PlanFootprint footprint;
  // Planner estimates joined against one measured run (filled whenever the
  // interpreter was measured; feeds the run report's model-check table).
  compiler::Plan plan;
  compiler::RunStats stats;
  bool have_stats = false;
};

double ns_per_nnz(double seconds, index_t nnz) {
  return seconds * 1e9 / static_cast<double>(nnz);
}

// executor.* counter deltas across a run (zero deltas elided), for the
// --threads --check reconciliation against the serial linked engine.
std::map<std::string, long long> exec_delta(
    const support::CountersSnapshot& before,
    const support::CountersSnapshot& after) {
  std::map<std::string, long long> d;
  for (const auto& [name, value] : after.counts) {
    if (name.rfind("executor.", 0) != 0) continue;
    long long delta = value;
    if (auto it = before.counts.find(name); it != before.counts.end())
      delta -= it->second;
    if (delta != 0) d[name] = delta;
  }
  return d;
}

// executor.fanout.* histogram bucket deltas (all-zero histograms elided).
std::map<std::string, std::vector<long long>> fanout_delta(
    const std::map<std::string, std::vector<long long>>& before,
    const std::map<std::string, std::vector<long long>>& after) {
  std::map<std::string, std::vector<long long>> d;
  for (const auto& [name, buckets] : after) {
    if (name.rfind("executor.fanout.", 0) != 0) continue;
    std::vector<long long> delta = buckets;
    if (auto it = before.find(name); it != before.end())
      for (std::size_t i = 0; i < delta.size() && i < it->second.size(); ++i)
        delta[i] -= it->second[i];
    bool any = false;
    for (long long v : delta) any = any || v != 0;
    if (any) d[name] = std::move(delta);
  }
  return d;
}

// Serving-metrics deltas across one run window (support/metrics.hpp), for
// the --check reconciliations: the execute.* registry entries plus the
// executor.runs counter they must agree with.
struct ExecMetricsDelta {
  long long runs = 0;     // executor.runs counter
  long long samples = 0;  // execute.latency histogram count
  long long sum_ns = 0;   // execute.latency histogram sum
  long long wall_ns = 0;  // execute.wall_ns rate
  long long bytes = 0;    // execute.model_bytes rate
  long long flops = 0;    // execute.model_flops rate
};

ExecMetricsDelta exec_metrics_window(const support::CountersSnapshot& c0,
                                     const support::MetricsSnapshot& m0,
                                     const support::CountersSnapshot& c1,
                                     const support::MetricsSnapshot& m1) {
  auto cnt = [](const support::CountersSnapshot& s, const char* k) {
    auto it = s.counts.find(k);
    return it == s.counts.end() ? 0LL : it->second;
  };
  auto rate = [](const support::MetricsSnapshot& s, const char* k) {
    auto it = s.rates.find(k);
    return it == s.rates.end() ? 0LL : it->second;
  };
  auto lat = [](const support::MetricsSnapshot& s) {
    auto it = s.latencies.find("execute.latency");
    return it == s.latencies.end() ? support::LatencySnapshot{} : it->second;
  };
  ExecMetricsDelta d;
  d.runs = cnt(c1, "executor.runs") - cnt(c0, "executor.runs");
  d.samples = lat(m1).count - lat(m0).count;
  d.sum_ns = lat(m1).sum_ns - lat(m0).sum_ns;
  d.wall_ns = rate(m1, "execute.wall_ns") - rate(m0, "execute.wall_ns");
  d.bytes = rate(m1, "execute.model_bytes") - rate(m0, "execute.model_bytes");
  d.flops = rate(m1, "execute.model_flops") - rate(m0, "execute.model_flops");
  return d;
}

// The serial-vs-threaded serving-metrics invariant: the DETERMINISTIC
// subset must match exactly (sample count, model traffic — integer sums
// merged in fixed shard order), and each side's histogram sum must equal
// its own wall_ns rate (the same integer booked at the same flush site).
// The timings themselves legitimately differ between the two runs.
bool deterministic_metrics_match(const ExecMetricsDelta& a,
                                 const ExecMetricsDelta& b) {
  return a.runs == b.runs && a.samples == b.samples && a.bytes == b.bytes &&
         a.flops == b.flops && a.sum_ns == a.wall_ns && b.sum_ns == b.wall_ns;
}

// One storage binding of a benchmark matrix. Exactly one pointer is set;
// scalar_nnz is the LOGICAL nonzero count of the matrix, shared across
// its formats so ns_per_nnz stays comparable (BCSR's block-fill zeros
// and SELL's padding lanes are storage artifacts, not extra matrix
// entries — per-entry times for bcsr honestly absorb the fill work).
struct EngineMatrix {
  std::string format;  // "csr" | "ccs" | "bcsr" | "sell"
  const formats::Csr* csr = nullptr;
  const formats::Ccs* ccs = nullptr;
  const formats::Bsr* bsr = nullptr;
  const formats::Sell* sell = nullptr;
  index_t scalar_nnz = 0;
};

// Measures one (matrix, format) case. Engines run the same accumulation
// y += A x on the same buffers; only the execution mechanism differs.
EngineCase measure_engines(const std::string& label, const EngineMatrix& m,
                           bool want_interpreted, bool want_linked,
                           bool want_kernel, bool want_specialized,
                           int threads, bool check) {
  using namespace bernoulli::compiler;
  const formats::Csr* csr = m.csr;
  const index_t rows = csr      ? csr->rows()
                       : m.ccs  ? m.ccs->rows()
                       : m.bsr  ? m.bsr->rows()
                                : m.sell->rows();
  const index_t cols = csr      ? csr->cols()
                       : m.ccs  ? m.ccs->cols()
                       : m.bsr  ? m.bsr->cols()
                                : m.sell->cols();

  EngineCase out;
  out.matrix = label;
  out.format = m.format;
  out.rows = rows;
  out.nnz = m.scalar_nnz;

  SplitMix64 rng(42);
  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  Vector y(static_cast<std::size_t>(rows), 0.0);

  Bindings b;
  if (csr)
    b.bind_csr("A", *csr);
  else if (m.ccs)
    b.bind_ccs("A", *m.ccs);
  else if (m.bsr)
    b.bind_bsr("A", *m.bsr);
  else
    b.bind_sell("A", *m.sell);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  // compile() lays relations out as I=0, target=1, factors in order.
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};
  out.footprint = link_plan(k.plan(), k.query()).footprint;

  const double budget = 0.05;
  if (want_interpreted) {
    Action act = multiply_accumulate(k.query(), target, factors);
    // One stats-collecting run first: the measured per-level counts feed
    // the cost-model check in the run report.
    execute_interpreted(k.plan(), k.query(), act, &out.stats);
    out.plan = k.plan();
    out.have_stats = true;
    out.interpreted_s = bench::best_seconds(
        [&] { execute_interpreted(k.plan(), k.query(), act); }, budget);
  }
  if (want_linked) {
    LinkedRunner runner(link_plan(k.plan(), k.query()));
    LinkedMac mac = link_mac(k.query(), target, factors);
    runner.run(mac);  // warm the cursor scratch
    if (check) {
      // Serving-metrics reconciliation: one run books exactly one
      // execute.latency sample, its nanoseconds equal the execute.wall_ns
      // rate delta (the same integer, booked at the same flush site), and
      // the model-traffic rates advance by exactly the link-time
      // footprint. The warm run above already registered the metrics.
      auto c0 = support::counters_snapshot();
      auto m0 = support::metrics_snapshot();
      const support::ProfileSnapshot p0 = support::profile_snapshot();
      runner.run(mac);
      const ExecMetricsDelta d =
          exec_metrics_window(c0, m0, support::counters_snapshot(),
                              support::metrics_snapshot());
      out.metrics_check_ok =
          d.runs == 1 && d.samples == d.runs && d.sum_ns == d.wall_ns &&
          (!out.footprint.exact || (d.bytes == out.footprint.total_bytes() &&
                                    d.flops == out.footprint.flops));
      if (!out.metrics_check_ok)
        std::cerr << "  [" << label << " " << out.format
                  << " serving-metrics MISMATCH: runs=" << d.runs
                  << " samples=" << d.samples << " sum_ns=" << d.sum_ns
                  << " wall_ns=" << d.wall_ns << " bytes=" << d.bytes
                  << "/" << out.footprint.total_bytes() << " flops="
                  << d.flops << "/" << out.footprint.flops << "]\n";
      if (support::profiling_enabled()) {
        // Profile reconciliation against the same one-run window: the
        // per-level self times the flush committed must sum to the run's
        // execute.wall_ns within the documented tolerance — the estimate
        // is sampled + extrapolated, so the bound is [25%, 150%] of wall
        // (the estimator clamps each run's total at 100% of its own
        // wall; the upper slack only absorbs snapshot boundary noise).
        const support::ProfileSnapshot p1 = support::profile_snapshot();
        const long long self = p1.total_self_ns() - p0.total_self_ns();
        out.profile_check_ok = self > 0 &&
                               2 * self <= 3 * d.wall_ns &&
                               4 * self >= d.wall_ns;
        if (!out.profile_check_ok)
          std::cerr << "  [" << label << " " << out.format
                    << " profile reconciliation MISMATCH: level self sum "
                    << self << " ns vs wall " << d.wall_ns << " ns]\n";
      }
    }
    out.linked_s = bench::best_seconds([&] { runner.run(mac); }, budget);
  }
  if (want_linked && threads > 1) {
    ParallelRunner runner(link_plan(k.plan(), k.query()), threads);
    LinkedMac mac = link_mac(k.query(), target, factors);
    if (check) {
      // Observability reconciliation: the threaded run must reproduce a
      // serial linked run bitwise — outputs, executor.* counter deltas,
      // executor.fanout.* histogram deltas — before its timing counts.
      LinkedRunner serial(link_plan(k.plan(), k.query()));
      std::fill(y.begin(), y.end(), 0.0);
      auto h0 = support::histograms_snapshot();
      auto c0 = support::counters_snapshot();
      auto m0 = support::metrics_snapshot();
      serial.run(mac);
      auto c1 = support::counters_snapshot();
      auto m1 = support::metrics_snapshot();
      const auto serial_counters = exec_delta(c0, c1);
      const auto serial_fanout = fanout_delta(h0, support::histograms_snapshot());
      const ExecMetricsDelta serial_metrics =
          exec_metrics_window(c0, m0, c1, m1);
      Vector y_serial = y;

      std::fill(y.begin(), y.end(), 0.0);
      h0 = support::histograms_snapshot();
      c0 = support::counters_snapshot();
      m0 = support::metrics_snapshot();
      runner.run(mac);
      c1 = support::counters_snapshot();
      m1 = support::metrics_snapshot();
      out.thread_check_ok =
          serial_counters == exec_delta(c0, c1) &&
          serial_fanout == fanout_delta(h0, support::histograms_snapshot()) &&
          y == y_serial &&
          deterministic_metrics_match(serial_metrics,
                                      exec_metrics_window(c0, m0, c1, m1));
      if (!out.thread_check_ok)
        std::cerr << "  [" << label << " " << out.format << " threads="
                  << threads << " MISMATCH vs serial linked]\n";
    }
    runner.run(mac);  // warm per-worker scratch
    // A run the runner executed serially (run_note names why) did not
    // fan out, even on a parallel-legal plan.
    out.parallel = runner.parallel() && runner.run_note().empty();
    out.linked_t_s = bench::best_seconds([&] { runner.run(mac); }, budget);
  }
  if (want_specialized) {
    // The kernel borrows the linked plan and mac (and their arrays), so
    // both must outlive it in this scope.
    LinkedPlan lp = link_plan(k.plan(), k.query());
    LinkedMac mac = link_mac(k.query(), target, factors);
    SpecializedKernel spec(lp, mac);
    out.specialized_note = spec.note();
    if (!spec.ok()) {
      std::cerr << "  [" << label << " " << out.format
                << " specialized: falling back to linked — " << spec.note()
                << "]\n";
    } else {
      if (check) {
        // Same reconciliation the threaded engine passes: the specialized
        // run must reproduce a serial linked run bitwise — outputs,
        // executor.* counter deltas, executor.fanout.* histogram deltas.
        LinkedRunner serial(link_plan(k.plan(), k.query()));
        std::fill(y.begin(), y.end(), 0.0);
        auto h0 = support::histograms_snapshot();
        auto c0 = support::counters_snapshot();
        auto m0 = support::metrics_snapshot();
        serial.run(mac);
        auto c1 = support::counters_snapshot();
        auto m1 = support::metrics_snapshot();
        const auto serial_counters = exec_delta(c0, c1);
        const auto serial_fanout =
            fanout_delta(h0, support::histograms_snapshot());
        const ExecMetricsDelta serial_metrics =
            exec_metrics_window(c0, m0, c1, m1);
        Vector y_serial = y;

        std::fill(y.begin(), y.end(), 0.0);
        h0 = support::histograms_snapshot();
        c0 = support::counters_snapshot();
        m0 = support::metrics_snapshot();
        spec.run();
        c1 = support::counters_snapshot();
        m1 = support::metrics_snapshot();
        out.specialized_check_ok =
            serial_counters == exec_delta(c0, c1) &&
            serial_fanout == fanout_delta(h0, support::histograms_snapshot()) &&
            y == y_serial &&
            deterministic_metrics_match(serial_metrics,
                                        exec_metrics_window(c0, m0, c1, m1));
        if (!out.specialized_check_ok)
          std::cerr << "  [" << label << " " << out.format
                    << " specialized MISMATCH vs serial linked]\n";
      }
      spec.run();  // warm (first run after dlopen pays page-in costs)
      out.specialized_s = bench::best_seconds([&] { spec.run(); }, budget);
    }
  }
  if (want_kernel) {
    if (csr)
      out.kernel_s = bench::best_seconds(
          [&] { formats::spmv_add(*csr, x, y); }, budget);
    else if (m.ccs)
      out.kernel_s = bench::best_seconds(
          [&] { formats::spmv_add(*m.ccs, x, y); }, budget);
    else if (m.bsr)
      out.kernel_s = bench::best_seconds(
          [&] { formats::spmv_add(*m.bsr, x, y); }, budget);
    else
      out.kernel_s = bench::best_seconds(
          [&] { formats::spmv_add(*m.sell, x, y); }, budget);
  }
  if (want_kernel && threads > 1 && csr) {
    // Row-chunked hand-written CRS kernel on the shared pool: the bound
    // the threaded linked engine chases, built from the same static chunk
    // grid the executor's coordinator uses.
    support::ThreadPool& pool = support::shared_pool(threads);
    const auto rp = csr->rowptr();
    const auto ci = csr->colind();
    const auto av = csr->vals();
    const index_t chunk = (rows + threads - 1) / threads;
    auto run_threaded = [&] {
      pool.run_slots(threads, [&](int slot) {
        const index_t lo = std::min<index_t>(rows, slot * chunk);
        const index_t hi = std::min<index_t>(rows, lo + chunk);
        for (index_t r = lo; r < hi; ++r) {
          value_t acc = 0.0;
          const index_t pe = rp[static_cast<std::size_t>(r) + 1];
          for (index_t p = rp[static_cast<std::size_t>(r)]; p < pe; ++p)
            acc += av[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(ci[static_cast<std::size_t>(p)])];
          y[static_cast<std::size_t>(r)] += acc;
        }
      });
    };
    run_threaded();  // warm
    out.kernel_t_s = bench::best_seconds(run_threaded, budget);
  }
  return out;
}

// Serial linked seconds of each matrix's CRS case — the baseline the
// blocked/sliced storage speedup metrics divide against.
std::map<std::string, double> crs_linked_baseline(
    const std::vector<EngineCase>& cases) {
  std::map<std::string, double> base;
  for (const EngineCase& c : cases)
    if (c.format == "csr" && c.linked_s > 0) base[c.matrix] = c.linked_s;
  return base;
}

int run_engines(const std::string& which, bool small, bool check,
                int threads, const std::string& report_path) {
  // Validate the engine name FIRST: --check/--threads/--report force
  // extra engines on, so deriving "unknown" from the want_* flags would
  // silently run a default sweep on a typo'd --engine value.
  if (which != "all" && which != "interpreted" && which != "linked" &&
      which != "specialized" && which != "kernel") {
    std::cerr << "unknown --engine value: " << which
              << " (expected interpreted|linked|specialized|kernel|all)\n";
    return 2;
  }
  const bool all = which == "all";
  const bool want_interpreted = all || which == "interpreted" || check ||
                                !report_path.empty();
  const bool want_linked = all || which == "linked" || check;
  const bool want_specialized = all || which == "specialized";
  const bool want_kernel = all || which == "kernel";
  const std::string tsuf = "_t" + std::to_string(threads);

  std::cout << "=== Execution engines: y += A x on the Table-2 matrix "
            << "(ns per stored entry";
  if (threads > 1) std::cout << ", threaded engines at " << threads;
  std::cout << ") ===\n\n";
  std::vector<EngineCase> cases;
  // Blocked/sliced storage axes on a block-structured Table-2 variant:
  // the same grid3d problem at 4 dof per point, so BCSR's 4x4 blocks are
  // the discretization's natural blocks. The CRS case on the same matrix
  // is the baseline the speedup_bcsr_vs_crs_linked /
  // speedup_sell_vs_crs_linked ledger metrics divide against. These run
  // first so the scaling probe below still lands on the largest CRS case.
  {
    bench::Problem prob = bench::build_problem(1, /*dof=*/4);
    const formats::Csr& csr = prob.matrix;
    formats::Coo coo = csr.to_coo();
    formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
    formats::Sell sell = formats::Sell::from_coo(coo, 8, 32);
    const std::string label = "grid3d_bs4_P1";
    const index_t nnz = csr.nnz();
    for (const EngineMatrix& em :
         {EngineMatrix{"csr", &csr, nullptr, nullptr, nullptr, nnz},
          EngineMatrix{"bcsr", nullptr, nullptr, &bsr, nullptr, nnz},
          EngineMatrix{"sell", nullptr, nullptr, nullptr, &sell, nnz}})
      cases.push_back(measure_engines(label, em, want_interpreted,
                                      want_linked, want_kernel,
                                      want_specialized, threads, check));
    std::cerr << "  [" << label << " done]\n";
  }
  // P=1 is in the full sweep too so a --small run (the CI gate) and the
  // committed BENCH_exec.json snapshot share comparable cases.
  for (int P : (small ? std::vector<int>{1} : std::vector<int>{1, 2, 4})) {
    bench::Problem prob = bench::build_problem(P);
    const formats::Csr& csr = prob.matrix;
    formats::Ccs ccs = formats::Ccs::from_coo(csr.to_coo());
    std::string label = "grid3d_bs_P" + std::to_string(P);
    cases.push_back(measure_engines(
        label, {"csr", &csr, nullptr, nullptr, nullptr, csr.nnz()},
        want_interpreted, want_linked, want_kernel, want_specialized,
        threads, check));
    cases.push_back(measure_engines(
        label, {"ccs", nullptr, &ccs, nullptr, nullptr, ccs.nnz()},
        want_interpreted, want_linked, want_kernel, want_specialized,
        threads, check));
    std::cerr << "  [" << label << " done]\n";
  }

  std::vector<std::string> headers{"matrix", "format", "rows", "nnz",
                                   "interp (ns/nnz)", "linked (ns/nnz)",
                                   "kernel (ns/nnz)"};
  if (want_specialized) {
    headers.push_back("spec (ns/nnz)");
    headers.push_back("spec vs kernel");
  }
  if (threads > 1) {
    headers.push_back("linked" + tsuf);
    headers.push_back("kernel" + tsuf);
    headers.push_back(tsuf.substr(1) + " scaling");
  }
  headers.push_back("linked speedup");
  headers.push_back("vs kernel");
  TextTable table(std::move(headers));
  bool check_ok = true;
  bool thread_check_ok = true;
  bool specialized_check_ok = true;
  bool metrics_check_ok = true;
  bool profile_check_ok = true;
  // Under --check with --threads > 1: every SpMV cell fanned out (CRS and
  // BCSR/SELL by row chunks, CCS owner-computes) — a silent serial
  // fallback fails the smoke.
  bool parallel_check_ok = true;
  bool any_specialized = false;
  // Threaded scaling on the LARGEST measured CRS case (the acceptance
  // target: >= 2.5x at 4 threads on the full Table-2 sweep).
  double big_scaling = -1.0;
  for (const EngineCase& c : cases) {
    table.new_row();
    table.add(c.matrix);
    table.add(c.format);
    table.add(static_cast<long long>(c.rows));
    table.add(static_cast<long long>(c.nnz));
    auto cell = [&](double s) {
      if (s < 0)
        table.add("-");
      else
        table.add(ns_per_nnz(s, c.nnz), 2);
    };
    auto ratio = [&](double num, double den, const char* fallback = "-") {
      if (num > 0 && den > 0) {
        std::ostringstream os;
        os.setf(std::ios::fixed);
        os.precision(1);
        os << num / den << "x";
        table.add(os.str());
      } else {
        table.add(fallback);
      }
    };
    cell(c.interpreted_s);
    cell(c.linked_s);
    cell(c.kernel_s);
    if (want_specialized) {
      if (c.specialized_s < 0) {
        table.add("fallback");
        table.add("-");
      } else {
        cell(c.specialized_s);
        ratio(c.specialized_s, c.kernel_s);
      }
    }
    if (threads > 1) {
      cell(c.linked_t_s);
      cell(c.kernel_t_s);
      // Serial-over-threaded: > 1 means the threads helped. Plans the
      // legality check rejected ran the serial fallback — say so instead
      // of printing a meaningless ~1.0x.
      if (!c.parallel && c.linked_t_s > 0) {
        table.add("serial");
        if (c.format == "csr" || c.format == "ccs" || c.format == "bcsr" ||
            c.format == "sell") {
          parallel_check_ok = false;
          std::cerr << "  [" << c.matrix << " " << c.format << " threads="
                    << threads << " ran serially]\n";
        }
      } else {
        ratio(c.linked_s, c.linked_t_s);
      }
      if (c.parallel && c.format == "csr" && c.linked_s > 0 &&
          c.linked_t_s > 0)
        big_scaling = c.linked_s / c.linked_t_s;  // last CRS case = largest
    }
    if (c.interpreted_s > 0 && c.linked_s > 0) {
      std::ostringstream os;
      os.setf(std::ios::fixed);
      os.precision(1);
      os << c.interpreted_s / c.linked_s << "x";
      table.add(os.str());
      if (c.linked_s >= c.interpreted_s) check_ok = false;
    } else {
      table.add("-");
    }
    ratio(c.linked_s, c.kernel_s);
    thread_check_ok = thread_check_ok && c.thread_check_ok;
    specialized_check_ok = specialized_check_ok && c.specialized_check_ok;
    metrics_check_ok = metrics_check_ok && c.metrics_check_ok;
    profile_check_ok = profile_check_ok && c.profile_check_ok;
    any_specialized = any_specialized || c.specialized_s > 0;
  }
  std::cout << table.str()
            << "\nlinked = plan linked once into a cursor program "
               "(compiler/link.hpp), then re-run;\nkernel = hand-written "
               "format spmv_add; interp = tree-walking reference "
               "interpreter.\n";
  if (want_specialized)
    std::cout << "spec = plan emitted as C, compiled to a shared object "
                 "and dlopen'd\n(compiler/specialize.hpp); \"fallback\" = "
                 "kernel unavailable on this host\n(reason printed above), "
                 "the linked engine stands in.\n";
  if (threads > 1)
    std::cout << "linked" << tsuf
              << " = ParallelRunner over " << threads
              << " pool threads (row chunks; CCS: rows of Y split, "
                 "owner-computes); kernel" << tsuf
              << " = row-chunked CRS spmv\non the same pool (CRS only). "
                 "scaling = serial linked time / threaded linked time.\n";

  if (!report_path.empty()) {
    const std::map<std::string, double> crs_base = crs_linked_baseline(cases);
    analysis::RunReport report("bench_table2_executor");
    report.config("axis", "engines");
    report.config("engine", which);
    report.config("small", small ? "true" : "false");
    if (threads > 1) report.config("threads", static_cast<long long>(threads));
    for (const EngineCase& c : cases) {
      // Metric names match what report_metrics() derives from a
      // bernoulli.bench.exec.v1 snapshot, so this report diffs directly
      // against the committed BENCH_exec.json.
      const std::string base = "exec." + c.matrix + "." + c.format;
      auto engine = [&](const std::string& name, double s) {
        if (s > 0)
          report.metric(base + "." + name + ".ns_per_nnz",
                        ns_per_nnz(s, c.nnz));
      };
      engine("interpreted", c.interpreted_s);
      engine("linked", c.linked_s);
      engine("specialized", c.specialized_s);
      engine("kernel", c.kernel_s);
      engine("linked" + tsuf, c.linked_t_s);
      engine("kernel" + tsuf, c.kernel_t_s);
      if (c.interpreted_s > 0 && c.linked_s > 0)
        report.metric(base + ".speedup_linked_over_interpreted",
                      c.interpreted_s / c.linked_s);
      if (c.kernel_s > 0 && c.linked_s > 0)
        report.metric(base + ".slowdown_linked_vs_kernel",
                      c.linked_s / c.kernel_s);
      if (c.kernel_s > 0 && c.specialized_s > 0)
        report.metric(base + ".slowdown_specialized_vs_kernel",
                      c.specialized_s / c.kernel_s);
      if (c.linked_s > 0 && c.linked_t_s > 0)
        report.metric(base + ".speedup_linked_threaded_over_serial",
                      c.linked_s / c.linked_t_s);
      if (auto it = crs_base.find(c.matrix);
          it != crs_base.end() && c.linked_s > 0) {
        if (c.format == "bcsr")
          report.metric(base + ".speedup_bcsr_vs_crs_linked",
                        it->second / c.linked_s);
        if (c.format == "sell")
          report.metric(base + ".speedup_sell_vs_crs_linked",
                        it->second / c.linked_s);
      }
      if (c.have_stats)
        report.add_model_check(c.matrix + "." + c.format,
                               analysis::model_check(c.plan, c.stats));
      // Roofline: every measured rung positioned against the simulated
      // machine's peaks (runtime::CostModel), with the link-time
      // footprint as the per-run traffic/work model. The same bytes for
      // every rung — they run the same plan on the same data; only the
      // seconds (and hence achieved bandwidth) differ.
      const runtime::CostModel cost;
      auto roof = [&](const std::string& name, double s) {
        if (s <= 0) return;
        analysis::RooflineEntry e;
        e.name = base + "." + name;
        e.bytes = c.footprint.total_bytes();
        e.flops = c.footprint.flops;
        e.seconds = s;
        e.peak_bytes_per_s = cost.bytes_per_s;
        e.peak_flops_per_s = cost.flops_per_s;
        e.exact = c.footprint.exact;
        report.add_roofline(e);
      };
      roof("interpreted", c.interpreted_s);
      roof("linked", c.linked_s);
      roof("specialized", c.specialized_s);
      roof("kernel", c.kernel_s);
      roof("linked" + tsuf, c.linked_t_s);
      roof("kernel" + tsuf, c.kernel_t_s);
    }
    // Under --profile: the flattened per-level attribution joins the
    // diffable metric surface, so `bernoulli_report regress` can point at
    // the level whose self-time moved when an exec.* gate trips.
    if (support::profiling_enabled()) {
      const support::JsonValue prof =
          support::json_parse(support::profile_json());
      for (const auto& [name, v] : analysis::profile_flat_metrics(prof))
        report.metric(name, v);
    }
    report.write(report_path);
  }
  if (check) {
    if (!check_ok) {
      std::cerr << "CHECK FAILED: linked engine slower than the "
                   "interpreter on at least one case\n";
      return 1;
    }
    if (!thread_check_ok) {
      std::cerr << "CHECK FAILED: threaded linked run did not reproduce "
                   "the serial run (outputs/counters/histograms)\n";
      return 1;
    }
    if (!parallel_check_ok) {
      std::cerr << "CHECK FAILED: a CRS, CCS, BCSR or SELL SpMV cell ran "
                   "serially on the threaded engine\n";
      return 1;
    }
    if (!specialized_check_ok) {
      std::cerr << "CHECK FAILED: specialized kernel did not reproduce "
                   "the serial linked run (outputs/counters/histograms)\n";
      return 1;
    }
    if (!metrics_check_ok) {
      std::cerr << "CHECK FAILED: serving metrics did not reconcile "
                   "(execute.latency samples vs executor.runs, histogram "
                   "sum vs execute.wall_ns, model bytes/flops vs the "
                   "link-time footprint)\n";
      return 1;
    }
    if (!profile_check_ok) {
      std::cerr << "CHECK FAILED: profile level self-times do not "
                   "reconcile with execute.wall_ns (per-level attribution "
                   "outside the documented tolerance)\n";
      return 1;
    }
    std::cerr << "check ok: linked faster than interpreted on every case\n";
    std::cerr << "check ok: serving metrics reconcile (latency samples == "
                 "runs, hist sum == wall_ns rate, model traffic == "
                 "footprint)\n";
    if (support::profiling_enabled())
      std::cerr << "check ok: per-level profile self-times sum to "
                   "execute.wall_ns within tolerance on every case\n";
    if (any_specialized)
      std::cerr << "check ok: specialized kernel bitwise-identical to the "
                   "serial linked engine with reconciling counters/"
                   "histograms\n";
    else if (want_specialized)
      std::cerr << "check note: specialized kernel unavailable on this "
                   "host (fell back to linked); nothing to verify\n";
    if (threads > 1)
      std::cerr << "check ok: threaded linked runs bitwise-identical to "
                   "serial with reconciling executor counters/histograms, "
                   "and every SpMV cell fanned out\n";
    // The scaling gate needs real cores; on an undersized host (CI smoke
    // containers are often 1-2 wide) the correctness checks above still
    // ran, so report the scaling and move on.
    const unsigned hw = std::thread::hardware_concurrency();
    if (threads > 1 && !small && big_scaling > 0) {
      if (hw >= static_cast<unsigned>(threads)) {
        if (big_scaling < 2.5) {
          std::cerr << "CHECK FAILED: linked" << tsuf << " only "
                    << big_scaling << "x over serial on the largest CRS "
                    << "case (need >= 2.5x on " << hw << " hw threads)\n";
          return 1;
        }
        std::cerr << "check ok: linked" << tsuf << " " << big_scaling
                  << "x over serial on the largest CRS case\n";
      } else {
        std::cerr << "check skipped: scaling gate needs >= " << threads
                  << " hw threads, host has " << hw << " (measured "
                  << big_scaling << "x)\n";
      }
    }
  }
  return 0;
}

int run_validate_exec_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  try {
    support::JsonValue doc = support::json_parse(ss.str());
    BERNOULLI_CHECK_MSG(doc.is_object(), "document is not an object");
    const auto* schema = doc.find("schema");
    BERNOULLI_CHECK_MSG(
        schema && schema->as_string() == "bernoulli.bench.exec.v1",
        "schema is not bernoulli.bench.exec.v1");
    const auto* cases = doc.find("cases");
    BERNOULLI_CHECK_MSG(cases && cases->is_array() && !cases->items.empty(),
                        "cases missing or empty");
    for (const auto& c : cases->items) {
      BERNOULLI_CHECK_MSG(c.find("matrix") && c.find("format") &&
                              c.find("nnz"),
                          "case missing matrix/format/nnz");
      const auto* engines = c.find("engines");
      BERNOULLI_CHECK_MSG(engines && engines->is_object() &&
                              !engines->members.empty(),
                          "case has no engines");
      for (const auto& [name, e] : engines->members) {
        const auto* ns = e.find("ns_per_nnz");
        BERNOULLI_CHECK_MSG(ns && ns->as_number() > 0,
                            "engine " << name << " has no ns_per_nnz");
      }
    }
    std::cout << "ok: " << path << " is a valid bernoulli.bench.exec.v1 "
              << "report with " << cases->items.size() << " cases\n";
  } catch (const std::exception& e) {
    std::cerr << "INVALID " << path << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Shared flags (observability, --metrics, --engine/--threads/--small/
  // --check) parse once in bench::Options; this tool's own flags come out
  // of opts.rest.
  auto opts = bench::Options::parse(argc, argv);
  std::string validate_json;
  for (const std::string& arg : opts.rest) {
    if (arg.rfind("--validate-exec-json=", 0) == 0)
      validate_json = arg.substr(21);
  }
  int rc;
  if (!validate_json.empty()) {
    rc = run_validate_exec_json(validate_json);
  } else if (!opts.engine.empty() || opts.threads > 0) {
    rc = run_engines(opts.engine.empty() ? "all" : opts.engine, opts.small,
                     opts.check, opts.threads, opts.obs.report_path);
  } else if (opts.obs.active()) {
    rc = run_traced(opts.obs);
  } else {
    rc = run_table();
  }
  opts.finish();
  return rc;
}
