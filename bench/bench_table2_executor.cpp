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
// last machine run; on the engine axis it carries the median ns/nnz of
// every (matrix, format, rung) cell, the median of every gated ratio and
// a cost-model check per case.
//
// `--trace=<file>` / `--comm-matrix` run a reduced traced measurement
// (P=4, all three variants): the trace gets one track per rank on virtual
// time with send->recv flow arrows, and support::obs_end asserts that the
// send-span byte args in the exported JSON, the comm matrix, and the
// comm.<phase>.* counters all equal the CommStats totals exactly.
//
// `--engine` switches to the sequential EXECUTION-ENGINE comparison: the
// same compiled SpMV plan on the Table-2 matrices (CRS and CCS, plus BCSR
// and SELL-C-sigma on a 4-dof variant), run through every rung: the
// tree-walking interpreter (execute_interpreted), the linked cursor engine
// (compiler/link.hpp), the threaded linked engine (compiler::ParallelRunner,
// as linked_tN, when --threads=N > 1), the runtime-specialized dlopen
// backend (compiler/specialize.hpp; a named fallback when the host has no
// C toolchain) and the hand-written format kernel (formats::spmv_add).
// All cells of one matrix run in ONE interleaved loop of kRounds rounds,
// the order rotated every round, so every rung sees the same host state;
// the table reports the median ns per stored entry. The old
// --engine=<value> form exits 2. Extra flags:
//   --small       one-processor problem only (CI smoke)
//   --threads=N   add the linked_tN rung
//   --check       exit 1 unless every correctness check and every ratio
//                 gate below holds:
//     - the threaded and specialized runs reproduce a serial linked run
//       bitwise, with identical executor.* counter and executor.fanout.*
//       histogram deltas and the deterministic serving-metrics subset;
//       every CRS, CCS, BCSR and SELL cell fans out on linked_tN;
//     - every cell takes its format's fused leaf form (compiler::
//       leaf_form): accumulator for CRS and SELL, hoisted-factor for
//       CCS, block-row for BCSR; a failure names the cell and the note;
//     - one serial linked run books exactly one execute.latency sample
//       whose nanoseconds equal the execute.wall_ns count (same integer,
//       same commit) and whose model bytes/flops equal the link-time
//       PlanFootprint; under --profile its per-level self times sum to
//       that run's wall within the documented tolerance;
//     - linked beats interpreted: the median per-round ratio exceeds 1;
//     - the perf gate (the Gate constants below): for each same-round
//       ratio, the UPPER QUARTILE over the rounds must reach a fixed
//       floor. A ratio of two rungs timed in the same round on the same
//       host needs no stored baseline; the upper quartile fails only when
//       three rounds in four read below the floor, so a few disturbed
//       rounds cannot trip it. The gated ratios are interpreted/linked,
//       linked/linked_tN, csr/bcsr and csr/sell linked, and kernel/linked
//       per format (the one that sees a slower linked rung; its floors
//       come from ten --small runs on one 4-vCPU host, see CHANGES.md).
//       Without --small, linked over linked_tN on the largest CRS case
//       must reach 2.5 instead of 0.55 (on hosts with >= N hardware
//       threads).
//
// `--metrics=<file>` (any axis) writes the metrics registry as
// Prometheus text at exit (bench::Options::finish).
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/critical_path.hpp"
#include "analysis/report.hpp"
#include "common.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/bsr.hpp"
#include "formats/ccs.hpp"
#include "formats/sell.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"
#include "support/text_table.hpp"
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

// Rounds of the interleaved loop: every cell of a matrix is timed once
// per round, so each gated ratio has kRounds same-round samples.
constexpr int kRounds = 100;

// The perf gate of --check: a same-round ratio (numerator rung's time
// over denominator rung's, so higher is better) whose upper quartile must
// reach `floor`. `metric` names the ratio's median in the run report.
struct Gate {
  const char* name;
  const char* metric;
  double floor;
};
constexpr Gate kInterpretedOverLinked{"interpreted/linked",
                                      "speedup_linked_over_interpreted", 10.0};
constexpr Gate kLinkedOverThreaded{
    "linked/linked_tN", "speedup_linked_threaded_over_serial", 0.55};
constexpr Gate kCsrOverBcsr{"csr_linked/bcsr_linked",
                            "speedup_bcsr_vs_crs_linked", 0.35};
constexpr Gate kCsrOverSell{"csr_linked/sell_linked",
                            "speedup_sell_vs_crs_linked", 0.57};
// The same ratio on the largest CRS case without --small, on hosts with
// at least N hardware threads.
constexpr Gate kScaling{"linked/linked_tN (scaling)",
                        "speedup_linked_threaded_over_serial", 2.5};
// The hand kernel over the linked engine, per format. Unlike
// interpreted/linked, which reads far above its floor, this ratio falls
// below its floor when the linked rung runs about 2x slower.
// Each floor is 0.75 x the lowest upper quartile of ten --engine
// --threads=4 --small runs on one 4-vCPU host (csr 0.53, ccs 0.68,
// bcsr 0.66, sell 0.65).
Gate kernel_over_linked(const std::string& format) {
  const double floor = format == "csr"    ? 0.39
                       : format == "ccs"  ? 0.51
                       : format == "bcsr" ? 0.49
                                          : 0.48;  // sell
  return {"kernel/linked", "speedup_linked_over_kernel", floor};
}

// executor.* counter deltas across a run (zero deltas elided).
std::map<std::string, long long> exec_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
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
// executor.runs count they must agree with.
struct ExecMetricsDelta {
  long long runs = 0;     // executor.runs
  long long samples = 0;  // execute.latency histogram count
  long long sum_ns = 0;   // execute.latency histogram sum
  long long wall_ns = 0;  // execute.wall_ns
  long long bytes = 0;    // execute.model_bytes
  long long flops = 0;    // execute.model_flops
};

ExecMetricsDelta exec_metrics_window(const support::MetricsSnapshot& m0,
                                     const support::MetricsSnapshot& m1) {
  auto delta = [&](const char* k) {
    auto count = [k](const support::MetricsSnapshot& s) {
      auto it = s.counts.find(k);
      return it == s.counts.end() ? 0LL : it->second;
    };
    return count(m1) - count(m0);
  };
  auto lat = [](const support::MetricsSnapshot& s) {
    auto it = s.latencies.find("execute.latency");
    return it == s.latencies.end() ? support::LatencySnapshot{} : it->second;
  };
  ExecMetricsDelta d;
  d.runs = delta("executor.runs");
  d.samples = lat(m1).count - lat(m0).count;
  d.sum_ns = lat(m1).sum_ns - lat(m0).sum_ns;
  d.wall_ns = delta("execute.wall_ns");
  d.bytes = delta("execute.model_bytes");
  d.flops = delta("execute.model_flops");
  return d;
}

// The serial-vs-other serving-metrics invariant: the DETERMINISTIC subset
// must match exactly (sample count, model traffic — integer sums merged in
// fixed shard order), and each side's histogram sum must equal its own
// wall_ns (the same integer booked by the same commit). The
// timings themselves legitimately differ between the two runs.
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

// One (matrix, format) case: the SpMV y += A x compiled once and bound to
// every rung. All rungs accumulate into the same y from the same x; only
// the execution mechanism differs. Built in place and never moved (the
// runners and the specialized kernel borrow its members).
struct FormatCase {
  std::string format;
  index_t rows = 0;
  index_t nnz = 0;
  Vector x, y;
  compiler::Bindings bindings;
  compiler::CompiledKernel k;
  compiler::Action act;
  compiler::LinkedMac mac;
  std::unique_ptr<compiler::LinkedRunner> linked;
  std::unique_ptr<compiler::ParallelRunner> threaded;   // --threads > 1
  std::unique_ptr<compiler::SpecializedKernel> spec;    // may not be ok()
  std::function<void()> kernel;  // formats::spmv_add on the same buffers
  // One stats-collecting interpreted run: feeds the report's model check.
  compiler::RunStats stats;
  bool fanned_out = false;  // linked_tN ran in parallel (no serial note)
  bool ok = true;           // every --check correctness reconciliation held
  // Empty when the pair takes its format's leaf form (expected_leaf_form);
  // otherwise the form it took and leaf_form()'s note.
  std::string leaf_error;

  explicit FormatCase(const EngineMatrix& m);
  bool reproduces_serial_linked(const std::function<void()>& other);
  void check_linked_metrics();
};

FormatCase::FormatCase(const EngineMatrix& m) : format(m.format) {
  using namespace bernoulli::compiler;
  index_t cols = 0;
  if (m.csr) {
    rows = m.csr->rows(), cols = m.csr->cols();
    bindings.bind_csr("A", *m.csr);
    kernel = [this, &a = *m.csr] { formats::spmv_add(a, x, y); };
  } else if (m.ccs) {
    rows = m.ccs->rows(), cols = m.ccs->cols();
    bindings.bind_ccs("A", *m.ccs);
    kernel = [this, &a = *m.ccs] { formats::spmv_add(a, x, y); };
  } else if (m.bsr) {
    rows = m.bsr->rows(), cols = m.bsr->cols();
    bindings.bind_bsr("A", *m.bsr);
    kernel = [this, &a = *m.bsr] { formats::spmv_add(a, x, y); };
  } else {
    rows = m.sell->rows(), cols = m.sell->cols();
    bindings.bind_sell("A", *m.sell);
    kernel = [this, &a = *m.sell] { formats::spmv_add(a, x, y); };
  }
  nnz = m.scalar_nnz;
  SplitMix64 rng(42);
  x.resize(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  y.assign(static_cast<std::size_t>(rows), 0.0);
  bindings.bind_dense_vector("X", ConstVectorView(x));
  bindings.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  k = compile(nest, bindings);
  // compile() lays relations out as I=0, target=1, factors in order.
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};
  act = multiply_accumulate(k.query(), target, factors);
  mac = link_mac(k.query(), target, factors);
  linked = std::make_unique<LinkedRunner>(link_plan(k.plan(), k.query()));
  execute_interpreted(k.plan(), k.query(), act, &stats);
}

// Runs a fresh serial linked runner and then `other`, each from a zeroed
// y, and reports whether `other` reproduced the serial run bitwise:
// outputs, executor.* counter deltas, executor.fanout.* histogram deltas
// and the deterministic serving-metrics subset.
bool FormatCase::reproduces_serial_linked(const std::function<void()>& other) {
  struct Window {
    std::map<std::string, long long> counters;
    std::map<std::string, std::vector<long long>> fanout;
    ExecMetricsDelta metrics;
    Vector y;
  };
  auto observe = [&](const std::function<void()>& run) {
    std::fill(y.begin(), y.end(), 0.0);
    const support::MetricsSnapshot m0 = support::metrics_snapshot();
    run();
    const support::MetricsSnapshot m1 = support::metrics_snapshot();
    return Window{exec_delta(m0, m1), fanout_delta(m0.log2, m1.log2),
                  exec_metrics_window(m0, m1), y};
  };
  compiler::LinkedRunner serial(compiler::link_plan(k.plan(), k.query()));
  const Window a = observe([&] { serial.run(mac); });
  const Window b = observe(other);
  return a.counters == b.counters && a.fanout == b.fanout && a.y == b.y &&
         deterministic_metrics_match(a.metrics, b.metrics);
}

// Serving-metrics reconciliation over one warm serial linked run: it books
// exactly one execute.latency sample, its nanoseconds equal the
// execute.wall_ns delta (the same integer, booked by the same commit),
// and the model-traffic counts advance by exactly the link-time
// footprint (exact for these flat cases). Under --profile, the per-level
// self times the run committed must also sum to the run's wall within
// the documented tolerance — the estimate is sampled + extrapolated, so
// the bound is [25%, 150%] of wall (the estimator clamps each run's total
// at 100% of its own wall; the upper slack only absorbs snapshot boundary
// noise).
void FormatCase::check_linked_metrics() {
  const compiler::PlanFootprint& footprint = linked->linked().footprint;
  const support::MetricsSnapshot m0 = support::metrics_snapshot();
  linked->run(mac);
  const support::MetricsSnapshot m1 = support::metrics_snapshot();
  const ExecMetricsDelta d = exec_metrics_window(m0, m1);
  if (d.runs != 1 || d.samples != d.runs || d.sum_ns != d.wall_ns ||
      (footprint.exact && (d.bytes != footprint.total_bytes() ||
                           d.flops != footprint.flops))) {
    ok = false;
    std::cerr << "  [" << format << " serving-metrics MISMATCH: runs="
              << d.runs << " samples=" << d.samples << " sum_ns=" << d.sum_ns
              << " wall_ns=" << d.wall_ns << " bytes=" << d.bytes << "/"
              << footprint.total_bytes() << " flops=" << d.flops << "/"
              << footprint.flops << "]\n";
  }
  if (!support::profiling_enabled()) return;
  const long long self =
      m1.profile.total_self_ns() - m0.profile.total_self_ns();
  if (self <= 0 || 2 * self > 3 * d.wall_ns || 4 * self < d.wall_ns) {
    ok = false;
    std::cerr << "  [" << format << " profile reconciliation MISMATCH: "
              << "level self sum " << self << " ns vs wall " << d.wall_ns
              << " ns]\n";
  }
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// One (format, rung) cell of a matrix's interleaved loop.
struct Cell {
  std::string format;
  std::string rung;
  index_t nnz = 0;
  std::function<void()> run;       // cleared once the loop is done
  std::vector<double> ns_per_nnz;  // one sample per round
};

// A gated ratio: numerator over denominator cell, round by round.
struct GateResult {
  std::string name;    // "<matrix>.<format> <gate>"
  std::string metric;  // "exec.<matrix>.<format>.<gate metric>"
  double floor = 0;
  Quartiles q;
  bool ok() const { return q.q3 >= floor; }
};

GateResult gate(const std::string& where, const Gate& g, const Cell& num,
                const Cell& den) {
  std::vector<double> r(num.ns_per_nnz.size());
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = num.ns_per_nnz[i] / den.ns_per_nnz[i];
  return {where + " " + g.name, "exec." + where + "." + g.metric, g.floor,
          quartiles(std::move(r))};
}

// What one matrix's run leaves once its cases (which borrow the matrix
// storage) are gone.
struct MatrixRun {
  struct Case {
    std::string format;
    index_t rows = 0;
    index_t nnz = 0;
    bool ok = true;
    bool fanned_out = false;
    std::string leaf_error;
    analysis::ModelCheckReport model;
  };
  std::string label;
  std::vector<Case> cases;
  std::vector<Cell> cells;

  const Cell* find(const std::string& format, const std::string& rung) const {
    for (const Cell& cell : cells)
      if (cell.format == format && cell.rung == rung) return &cell;
    return nullptr;
  }
};

// The leaf form each format's SpMV must take on every engine rung: a
// register accumulator per row for CRS and SELL, x[j] loaded once per
// column for CCS, one block row per step for BCSR. A leaf-form verdict
// that drops a cell to the per-element leaf fails --check by name.
compiler::LeafForm expected_leaf_form(const std::string& format) {
  using compiler::LeafForm;
  if (format == "ccs") return LeafForm::kHoistedFactor;
  if (format == "bcsr") return LeafForm::kBlockRow;
  return LeafForm::kAccumulator;
}

// Builds every format's case and cells for one matrix, runs the --check
// reconciliations, then times all cells in one interleaved loop.
MatrixRun run_matrix(const std::string& label,
                     const std::vector<EngineMatrix>& matrices, int threads,
                     bool check) {
  using namespace bernoulli::compiler;
  const std::string tsuf = "_t" + std::to_string(threads);
  std::vector<std::unique_ptr<FormatCase>> cases;
  MatrixRun out{label, {}, {}};
  auto add_cell = [&](const FormatCase& c, std::string rung,
                      std::function<void()> run) {
    out.cells.push_back({c.format, std::move(rung), c.nnz, std::move(run), {}});
  };
  for (const EngineMatrix& m : matrices) {
    FormatCase& c = *cases.emplace_back(std::make_unique<FormatCase>(m));
    c.linked->run(c.mac);  // warm the cursor scratch
    if (check) c.check_linked_metrics();
    std::string note;
    const LeafForm form = leaf_form(c.linked->linked(), c.mac, &note);
    if (const LeafForm want = expected_leaf_form(c.format); form != want)
      c.leaf_error = std::string("leaf form ") + leaf_form_name(form) +
                     ", want " + leaf_form_name(want) + " (" + note + ")";
    add_cell(c, "interpreted", [&c] {
      execute_interpreted(c.k.plan(), c.k.query(), c.act);
    });
    add_cell(c, "linked", [&c] { c.linked->run(c.mac); });
    if (threads > 1) {
      c.threaded = std::make_unique<ParallelRunner>(
          link_plan(c.k.plan(), c.k.query()), threads);
      if (check &&
          !c.reproduces_serial_linked([&c] { c.threaded->run(c.mac); })) {
        c.ok = false;
        std::cerr << "  [" << label << " " << c.format << " threads="
                  << threads << " MISMATCH vs serial linked]\n";
      }
      c.threaded->run(c.mac);  // warm per-worker scratch
      // A run the runner executed serially (run_note names why) did not
      // fan out, even on a parallel-legal plan.
      c.fanned_out = c.threaded->parallel() && c.threaded->run_note().empty();
      add_cell(c, "linked" + tsuf, [&c] { c.threaded->run(c.mac); });
    }
    // The specialized kernel borrows the linked runner's plan and the mac.
    c.spec = std::make_unique<SpecializedKernel>(c.linked->linked(), c.mac);
    if (!c.spec->ok()) {
      std::cerr << "  [" << label << " " << c.format
                << " specialized: falling back to linked — "
                << c.spec->note() << "]\n";
    } else {
      if (check && !c.reproduces_serial_linked([&c] { c.spec->run(); })) {
        c.ok = false;
        std::cerr << "  [" << label << " " << c.format
                  << " specialized MISMATCH vs serial linked]\n";
      }
      c.spec->run();  // warm (first run after dlopen pays page-in costs)
      add_cell(c, "specialized", [&c] { c.spec->run(); });
    }
    c.kernel();  // warm
    add_cell(c, "kernel", c.kernel);
  }

  const std::size_t n = out.cells.size();
  for (Cell& cell : out.cells) cell.ns_per_nnz.resize(kRounds);
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t i = 0; i < n; ++i) {
      Cell& cell = out.cells[(i + static_cast<std::size_t>(r)) % n];
      WallTimer t;
      cell.run();
      cell.ns_per_nnz[static_cast<std::size_t>(r)] =
          t.seconds() * 1e9 / static_cast<double>(cell.nnz);
    }
  for (Cell& cell : out.cells) cell.run = nullptr;
  for (const auto& c : cases)
    out.cases.push_back({c->format, c->rows, c->nnz, c->ok, c->fanned_out,
                         c->leaf_error,
                         analysis::model_check(c->k.plan(), c->stats)});
  std::cerr << "  [" << label << " done]\n";
  return out;
}

int run_engines(bool small, bool check, int threads,
                const std::string& report_path) {
  const std::string tsuf = "_t" + std::to_string(threads);
  std::cout << "=== Execution engines: y += A x on the Table-2 matrix "
            << "(median ns per stored entry over " << kRounds
            << " interleaved rounds";
  if (threads > 1) std::cout << ", threaded rung at " << threads;
  std::cout << ") ===\n\n";
  std::vector<MatrixRun> runs;
  // Blocked/sliced storage axes on a block-structured Table-2 variant:
  // the same grid3d problem at 4 dof per point, so BCSR's 4x4 blocks are
  // the discretization's natural blocks. The CRS case on the same matrix
  // is the denominator of the csr/bcsr and csr/sell gates.
  {
    bench::Problem prob = bench::build_problem(1, /*dof=*/4);
    const formats::Csr& csr = prob.matrix;
    formats::Coo coo = csr.to_coo();
    formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
    formats::Sell sell = formats::Sell::from_coo(coo, 8, 32);
    const index_t nnz = csr.nnz();
    runs.push_back(run_matrix(
        "grid3d_bs4_P1",
        {{"csr", &csr, nullptr, nullptr, nullptr, nnz},
         {"bcsr", nullptr, nullptr, &bsr, nullptr, nnz},
         {"sell", nullptr, nullptr, nullptr, &sell, nnz}},
        threads, check));
  }
  // The last matrix is the largest; the scaling gate reads its CRS case.
  for (int P : (small ? std::vector<int>{1} : std::vector<int>{1, 2, 4})) {
    bench::Problem prob = bench::build_problem(P);
    const formats::Csr& csr = prob.matrix;
    formats::Ccs ccs = formats::Ccs::from_coo(csr.to_coo());
    runs.push_back(run_matrix(
        "grid3d_bs_P" + std::to_string(P),
        {{"csr", &csr, nullptr, nullptr, nullptr, csr.nnz()},
         {"ccs", nullptr, &ccs, nullptr, nullptr, ccs.nnz()}},
        threads, check));
  }

  std::vector<std::string> rungs{"interpreted", "linked"};
  if (threads > 1) rungs.push_back("linked" + tsuf);
  rungs.push_back("specialized");
  rungs.push_back("kernel");
  std::vector<std::string> headers{"matrix", "format", "rows", "nnz"};
  headers.insert(headers.end(), rungs.begin(), rungs.end());
  TextTable table(std::move(headers));
  analysis::RunReport report("bench_table2_executor");
  report.config("axis", "engines");
  report.config("small", small ? "true" : "false");
  report.config("rounds", static_cast<long long>(kRounds));
  if (threads > 1) report.config("threads", static_cast<long long>(threads));

  // Scaling needs real cores: on an undersized host the largest CRS case
  // keeps the per-cell floor, and the correctness checks still run.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_scaling = !small && hw >= static_cast<unsigned>(threads);
  if (threads > 1 && !small && !gate_scaling)
    std::cerr << "note: scaling gate needs >= " << threads
              << " hw threads, host has " << hw << "\n";
  std::vector<GateResult> gates;
  bool correct = true;
  bool linked_beats_interpreted = true;
  bool fanned_out = true;
  std::vector<std::string> leaf_errors;
  for (const MatrixRun& run : runs) {
    for (const auto& c : run.cases) {
      const std::string where = run.label + "." + c.format;
      table.new_row();
      table.add(run.label);
      table.add(c.format);
      table.add(static_cast<long long>(c.rows));
      table.add(static_cast<long long>(c.nnz));
      for (const std::string& rung : rungs) {
        const Cell* cell = run.find(c.format, rung);
        if (!cell) {
          table.add(rung == "specialized" ? "fallback" : "-");
          continue;
        }
        const double median = quartiles(cell->ns_per_nnz).median;
        table.add(median, 2);
        report.metric("exec." + where + "." + rung + ".ns_per_nnz", median);
      }
      report.add_model_check(where, c.model);
      const Cell& linked = *run.find(c.format, "linked");
      gates.push_back(gate(where, kInterpretedOverLinked,
                           *run.find(c.format, "interpreted"), linked));
      linked_beats_interpreted =
          linked_beats_interpreted && gates.back().q.median > 1.0;
      if (threads > 1) {
        const bool largest_csr = &run == &runs.back() && c.format == "csr";
        gates.push_back(gate(where,
                             gate_scaling && largest_csr ? kScaling
                                                         : kLinkedOverThreaded,
                             linked, *run.find(c.format, "linked" + tsuf)));
        if (!c.fanned_out) {
          fanned_out = false;
          std::cerr << "  [" << where << " threads=" << threads
                    << " ran serially]\n";
        }
      }
      if (c.format == "bcsr" || c.format == "sell")
        gates.push_back(gate(where,
                             c.format == "bcsr" ? kCsrOverBcsr : kCsrOverSell,
                             *run.find("csr", "linked"), linked));
      gates.push_back(gate(where, kernel_over_linked(c.format),
                           *run.find(c.format, "kernel"), linked));
      correct = correct && c.ok;
      if (!c.leaf_error.empty())
        leaf_errors.push_back(where + ": " + c.leaf_error);
    }
  }
  for (const GateResult& g : gates) report.metric(g.metric, g.q.median);
  std::cout << table.str()
            << "\ninterpreted = tree-walking reference interpreter; linked = "
               "plan linked once into a\ncursor program (compiler/link.hpp);";
  if (threads > 1)
    std::cout << " linked" << tsuf << " = ParallelRunner over " << threads
              << " pool threads\n(row chunks; CCS: owner-computes);";
  std::cout << " specialized = plan emitted as C and dlopen'd\n"
               "(compiler/specialize.hpp; \"fallback\" = unavailable on this "
               "host, reason above);\nkernel = hand-written format "
               "spmv_add.\n\nsame-round ratios (gate: upper quartile >= "
               "floor):\n";
  TextTable gate_table({"ratio", "floor", "q1", "median", "q3", ""});
  for (const GateResult& g : gates) {
    gate_table.new_row();
    gate_table.add(g.name);
    gate_table.add(g.floor, 2);
    gate_table.add(g.q.q1, 2);
    gate_table.add(g.q.median, 2);
    gate_table.add(g.q.q3, 2);
    gate_table.add(g.ok() ? "" : "BELOW");
  }
  std::cout << gate_table.str();
  if (!report_path.empty()) report.write(report_path);
  if (!check) return 0;

  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::cerr << "CHECK FAILED: " << what << "\n";
    ok = false;
  };
  if (!correct)
    fail("a threaded or specialized run did not reproduce the serial "
         "linked run (outputs/counters/histograms/serving metrics), or one "
         "serial linked run's serving metrics or profile did not reconcile "
         "(mismatches listed above)");
  if (!fanned_out)
    fail("a CRS, CCS, BCSR or SELL SpMV cell ran serially on the threaded "
         "engine");
  for (const std::string& e : leaf_errors) fail(e);
  if (!linked_beats_interpreted)
    fail("linked not faster than interpreted on at least one case (median "
         "per-round interpreted/linked ratio at or below 1)");
  for (const GateResult& g : gates) {
    if (g.ok()) continue;
    std::cerr << "CHECK FAILED: " << g.name << ": upper quartile " << g.q.q3
              << " below floor " << g.floor << " (q1 " << g.q.q1
              << ", median " << g.q.median << ", q3 " << g.q.q3 << ")\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cerr << "check ok: threaded and specialized runs reproduce serial "
               "linked bitwise; serving metrics"
            << (support::profiling_enabled() ? " and per-level profile" : "")
            << " reconcile; every threaded cell fanned out; every cell "
               "took its leaf form; "
            << gates.size() << " ratio gates hold\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Shared flags (observability, --metrics, --engine/--threads/--small/
  // --check) parse once in bench::Options.
  auto opts = bench::Options::parse(argc, argv);
  for (const std::string& arg : opts.rest) {
    std::cerr << "unknown argument: " << arg << "\n";
    return 2;
  }
  int rc;
  if (opts.engine || opts.threads > 0) {
    rc = run_engines(opts.small, opts.check, opts.threads,
                     opts.obs.report_path);
  } else if (opts.obs.active()) {
    rc = run_traced(opts.obs);
  } else {
    rc = run_table();
  }
  opts.finish();
  return rc;
}
