// Tests for the analysis subsystem (src/analysis/): critical-path
// extraction from span traces, the cost-model validation join, run-report
// (bernoulli.run.v1) round-tripping, report diffing, and the solve hooks.
//
// The headline acceptance test reconciles FOUR independent views of one
// 4-rank SpMV's communication — critical-path rank breakdowns, CommStats,
// the comm matrix, and the comm.* counters — exactly, and checks the
// critical path's total against the machine's own virtual clocks to the
// last bit (manual-compute mode makes the timeline purely deterministic).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/hooks.hpp"
#include "analysis/model_check.hpp"
#include "analysis/report.hpp"
#include "compiler/loopnest.hpp"
#include "distrib/distribution.hpp"
#include "formats/csr.hpp"
#include "runtime/machine.hpp"
#include "solvers/cg.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/dist_compile.hpp"
#include "spmd/matvec.hpp"
#include "support/json_reader.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "support/trace_cli.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::analysis {
namespace {

using support::JsonValue;
using support::json_parse;

// RAII temp file so failing tests do not leave artifacts behind.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(CriticalPath, EmptyTraceYieldsEmptyReport) {
  support::trace_start();
  support::trace_stop();
  CriticalPathReport r = critical_path_current();
  EXPECT_EQ(r.nprocs, 0);
  EXPECT_EQ(r.total_us, 0.0);
  EXPECT_TRUE(r.ranks.empty());
  EXPECT_TRUE(r.steps.empty());
}

TEST(CriticalPath, SingleRankIsOneComputeSegment) {
  support::trace_start();
  runtime::Machine machine(1);
  machine.set_manual_compute(true);  // exact timeline: only charges count
  auto reports = machine.run([&](runtime::Process& p) {
    p.charge_seconds(100e-6);
    p.barrier();  // P=1 collective: zero-width span anchoring the finish
  });
  support::trace_stop();

  CriticalPathReport r = critical_path_current();
  ASSERT_EQ(r.nprocs, 1);
  EXPECT_DOUBLE_EQ(r.total_us, reports[0].virtual_time * 1e6);
  EXPECT_NEAR(r.total_us, 100.0, 1e-9);
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ranks[0].comm_us, 0.0);  // zero-width barrier
  EXPECT_DOUBLE_EQ(r.ranks[0].idle_us, 0.0);
  EXPECT_NEAR(r.ranks[0].compute_us, 100.0, 1e-9);
  EXPECT_EQ(r.ranks[0].sent_messages, 0);
  EXPECT_EQ(r.ranks[0].sent_bytes, 0);
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].kind, "compute");
  EXPECT_DOUBLE_EQ(r.steps[0].t1_us, r.total_us);
  EXPECT_DOUBLE_EQ(r.max_over_mean_compute, 1.0);
  EXPECT_DOUBLE_EQ(r.idle_fraction, 0.0);
}

// Hand-built 3-rank diamond: rank 0 feeds ranks 1 and 2; rank 1 feeds
// rank 2. CostModel{latency 1e-5 s, 1e8 B/s} and 800-byte messages give a
// 10 us send latency and an 18 us point-to-point charge, so every event
// time is computable by hand:
//
//   rank 0: charge 100us; send->1 [100,110]; send->2 [110,120]
//           arrivals: at rank 1 t=128, at rank 2 t=148
//   rank 1: recv<-0 [0,128]; charge 300us; send->2 [428,438]
//           arrival at rank 2 t=456
//   rank 2: charge 50us; recv<-0 [50,148]; recv<-1 [148,456]
//
// Finishes 120 / 438 / 456; computes 100 / 300 / 50 (max/mean exactly
// 2.0); idles 0 / 128 / (98+308)=406; critical path = compute on rank 0,
// message to rank 1, compute on rank 1, message to rank 2.
TEST(CriticalPath, DiamondDagMatchesHandComputation) {
  const std::vector<double> payload(100, 1.0);  // 800 bytes

  support::trace_start();
  runtime::Machine machine(3, runtime::CostModel{1e-5, 1e8});
  machine.set_manual_compute(true);  // exact timeline: only charges count
  auto reports = machine.run([&](runtime::Process& p) {
    std::span<const double> data(payload);
    switch (p.rank()) {
      case 0:
        p.charge_seconds(100e-6);
        p.send(1, /*tag=*/1, data);
        p.send(2, /*tag=*/2, data);
        break;
      case 1:
        (void)p.recv<double>(0, 1);
        p.charge_seconds(300e-6);
        p.send(2, /*tag=*/3, data);
        break;
      case 2:
        p.charge_seconds(50e-6);
        (void)p.recv<double>(0, 2);
        (void)p.recv<double>(1, 3);
        break;
    }
  });
  support::trace_stop();

  CriticalPathReport r = critical_path_current();
  ASSERT_EQ(r.nprocs, 3);

  const double kTol = 1e-6;
  EXPECT_NEAR(r.total_us, 456.0, kTol);
  ASSERT_EQ(r.ranks.size(), 3u);
  // Finishes agree bit-for-bit with the machine's own virtual clocks (in
  // manual-compute mode nothing advances the clock after the last event).
  for (int rank = 0; rank < 3; ++rank)
    EXPECT_DOUBLE_EQ(r.ranks[static_cast<std::size_t>(rank)].finish_us,
                     reports[static_cast<std::size_t>(rank)].virtual_time *
                         1e6)
        << "rank " << rank;
  EXPECT_NEAR(r.ranks[0].finish_us, 120.0, kTol);
  EXPECT_NEAR(r.ranks[1].finish_us, 438.0, kTol);
  EXPECT_NEAR(r.ranks[2].finish_us, 456.0, kTol);
  EXPECT_NEAR(r.ranks[0].compute_us, 100.0, kTol);
  EXPECT_NEAR(r.ranks[1].compute_us, 300.0, kTol);
  EXPECT_NEAR(r.ranks[2].compute_us, 50.0, kTol);
  EXPECT_NEAR(r.ranks[0].idle_us, 0.0, kTol);
  EXPECT_NEAR(r.ranks[1].idle_us, 128.0, kTol);
  EXPECT_NEAR(r.ranks[2].idle_us, 406.0, kTol);
  EXPECT_NEAR(r.ranks[0].send_us, 20.0, kTol);
  EXPECT_NEAR(r.ranks[1].send_us, 10.0, kTol);
  EXPECT_NEAR(r.ranks[2].send_us, 0.0, kTol);
  EXPECT_NEAR(r.ranks[0].slack_us, 336.0, kTol);
  EXPECT_NEAR(r.ranks[1].slack_us, 18.0, kTol);
  EXPECT_NEAR(r.ranks[2].slack_us, 0.0, kTol);
  EXPECT_EQ(r.ranks[0].sent_messages, 2);
  EXPECT_EQ(r.ranks[0].sent_bytes, 1600);
  EXPECT_EQ(r.ranks[1].sent_messages, 1);
  EXPECT_EQ(r.ranks[1].sent_bytes, 800);
  EXPECT_EQ(r.ranks[2].sent_messages, 0);

  EXPECT_NEAR(r.max_over_mean_compute, 2.0, kTol);  // 300 / mean(150)
  EXPECT_NEAR(r.idle_fraction, 534.0 / 1014.0, kTol);

  // The path: rank 0's compute feeds rank 1 through the first message,
  // rank 1's compute feeds rank 2 through the last.
  ASSERT_EQ(r.steps.size(), 4u);
  EXPECT_EQ(r.steps[0].kind, "compute");
  EXPECT_EQ(r.steps[0].rank, 0);
  EXPECT_NEAR(r.steps[0].t0_us, 0.0, kTol);
  EXPECT_NEAR(r.steps[0].t1_us, 110.0, kTol);  // includes the send latency
  EXPECT_EQ(r.steps[1].kind, "recv");
  EXPECT_EQ(r.steps[1].rank, 1);
  EXPECT_EQ(r.steps[1].from_rank, 0);
  EXPECT_NEAR(r.steps[1].t0_us, 110.0, kTol);  // flow start -> arrival
  EXPECT_NEAR(r.steps[1].t1_us, 128.0, kTol);
  EXPECT_EQ(r.steps[2].kind, "compute");
  EXPECT_EQ(r.steps[2].rank, 1);
  EXPECT_NEAR(r.steps[2].t0_us, 128.0, kTol);
  EXPECT_NEAR(r.steps[2].t1_us, 438.0, kTol);
  EXPECT_EQ(r.steps[3].kind, "recv");
  EXPECT_EQ(r.steps[3].rank, 2);
  EXPECT_EQ(r.steps[3].from_rank, 1);
  EXPECT_NEAR(r.steps[3].t0_us, 438.0, kTol);
  EXPECT_NEAR(r.steps[3].t1_us, 456.0, kTol);

  // Steps chain: contiguous in time, earliest first.
  for (std::size_t i = 1; i < r.steps.size(); ++i)
    EXPECT_DOUBLE_EQ(r.steps[i].t0_us, r.steps[i - 1].t1_us);
  EXPECT_DOUBLE_EQ(r.steps.back().t1_us, r.total_us);

  // The text render mentions every rank.
  std::string text = critical_path_text(r);
  EXPECT_NE(text.find("critical path"), std::string::npos);

  // JSON form round-trips through the strict parser.
  JsonValue parsed = json_parse(critical_path_json(r, 2));
  EXPECT_EQ(parsed.find("nprocs")->as_number(), 3);
  EXPECT_EQ(parsed.find("steps")->items.size(), 4u);
}

// The acceptance test: a real 4-rank distributed SpMV, reconciled across
// every view of the same run — the analysis' totals against the machine's
// virtual clocks (exact), and the per-rank traffic against CommStats, the
// comm matrix, and the comm.* counters (exact), both from the in-memory
// trace and after a round trip through an exported trace file and a
// written bernoulli.run.v1 report.
TEST(CriticalPath, FourRankSpmvReconcilesAllViews) {
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 21);
  formats::Csr a = formats::Csr::from_coo(g.matrix);
  const int P = 4;
  distrib::BlockDist rows(a.rows(), P);

  support::metrics_reset();
  support::trace_start();
  runtime::Machine machine(P);
  machine.set_manual_compute(true);  // only modeled comm advances the clock
  auto reports = machine.run([&](runtime::Process& p) {
    spmd::DistSpmv dist = spmd::build_dist_spmv(p, a, rows,  //
                                                spmd::Variant::kBernoulliMixed);
    Vector x_full(static_cast<std::size_t>(dist.sched.full_size()), 1.0);
    Vector y(static_cast<std::size_t>(dist.sched.owned), 0.0);
    dist.apply(p, x_full, y, /*tag=*/7);
    p.barrier();
  });
  support::trace_stop();

  CriticalPathReport r = critical_path_current();
  ASSERT_EQ(r.nprocs, P);

  // Total == the slowest rank's own virtual clock, to the last bit.
  double max_vt_us = 0.0;
  for (const auto& rep : reports)
    max_vt_us = std::max(max_vt_us, rep.virtual_time * 1e6);
  EXPECT_DOUBLE_EQ(r.total_us, max_vt_us);
  ASSERT_EQ(r.ranks.size(), static_cast<std::size_t>(P));
  for (int rank = 0; rank < P; ++rank) {
    const RankBreakdown& b = r.ranks[static_cast<std::size_t>(rank)];
    // The run ends in a barrier, so every rank finishes at the total
    // (up to a last-bit rounding difference in the rendezvous clocks).
    EXPECT_DOUBLE_EQ(b.finish_us, r.total_us) << "rank " << rank;
    EXPECT_NEAR(b.slack_us, 0.0, 1e-9) << "rank " << rank;
    // Per-rank traffic reconciles exactly with CommStats...
    const auto& stats = reports[static_cast<std::size_t>(rank)].stats;
    EXPECT_EQ(b.sent_messages, stats.messages) << "rank " << rank;
    EXPECT_EQ(b.sent_bytes, stats.bytes) << "rank " << rank;
  }

  // ...and with the comm matrix row sums...
  support::CommMatrixSnapshot mat = support::comm_matrix_snapshot();
  ASSERT_EQ(mat.nprocs, P);
  for (int src = 0; src < P; ++src) {
    long long row_msgs = 0, row_bytes = 0;
    for (int dst = 0; dst < P; ++dst) {
      row_msgs += mat.messages_at(src, dst);
      row_bytes += mat.bytes_at(src, dst);
    }
    EXPECT_EQ(r.ranks[static_cast<std::size_t>(src)].sent_messages, row_msgs);
    EXPECT_EQ(r.ranks[static_cast<std::size_t>(src)].sent_bytes, row_bytes);
  }

  // ...and with the comm.* counter registry in aggregate.
  long long counter_bytes = 0, counter_messages = 0;
  for (const auto& [name, v] : support::metrics_snapshot().counts) {
    if (name.rfind("comm.", 0) != 0) continue;
    if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".bytes") == 0)
      counter_bytes += v;
    if (name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".messages") == 0)
      counter_messages += v;
  }
  long long path_messages = 0, path_bytes = 0;
  for (const auto& b : r.ranks) {
    path_messages += b.sent_messages;
    path_bytes += b.sent_bytes;
  }
  ASSERT_GT(path_bytes, 0);
  EXPECT_EQ(path_messages, counter_messages);
  EXPECT_EQ(path_bytes, counter_bytes);

  // File round trip: the exported trace re-analyzes to the same report.
  TempFile trace_file("analysis_test_trace.json");
  {
    std::ofstream out(trace_file.path);
    out << support::trace_json();
  }
  CriticalPathReport from_file = critical_path_from_file(trace_file.path);
  EXPECT_EQ(from_file.nprocs, r.nprocs);
  EXPECT_DOUBLE_EQ(from_file.total_us, r.total_us);
  ASSERT_EQ(from_file.steps.size(), r.steps.size());
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    EXPECT_EQ(from_file.steps[i].kind, r.steps[i].kind);
    EXPECT_DOUBLE_EQ(from_file.steps[i].t1_us, r.steps[i].t1_us);
  }
  EXPECT_DOUBLE_EQ(from_file.idle_fraction, r.idle_fraction);

  // Report round trip: a written bernoulli.run.v1 report carries the same
  // critical path and parses back through the strict reader.
  TempFile report_file("analysis_test_report.json");
  {
    RunReport report("analysis_test");
    report.config("P", static_cast<long long>(P));
    report.metric("test.total_us", r.total_us);
    report.set_critical_path(r);
    report.write(report_file.path);
  }
  std::ifstream in(report_file.path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue doc = json_parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), "bernoulli.run.v1");
  const JsonValue* cp = doc.find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->find("nprocs")->as_number(), P);
  EXPECT_DOUBLE_EQ(cp->find("total_us")->as_number(), r.total_us);
  long long doc_bytes = 0;
  for (const JsonValue& rb : cp->find("ranks")->items)
    doc_bytes += static_cast<long long>(rb.find("sent_bytes")->as_number());
  EXPECT_EQ(doc_bytes, path_bytes);
  auto metrics = report_metrics(doc);
  EXPECT_DOUBLE_EQ(metrics.at("test.total_us"), r.total_us);
}

TEST(ModelCheck, GridSpmvScoresLowAndDoctoredPlanScoresHigh) {
  auto grid = workloads::grid2d_5pt(30, 30, 1, 3);
  formats::Csr a = formats::Csr::from_coo(grid.matrix);
  const index_t n = a.rows();
  Vector x(static_cast<std::size_t>(n), 1.0), y(static_cast<std::size_t>(n));

  compiler::LoopNest nest{
      {{"i", n}, {"j", n}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };
  compiler::Bindings bind;
  bind.bind_csr("A", a);
  bind.bind_dense_vector("X", ConstVectorView(x));
  bind.bind_dense_vector("Y", VectorView(y));
  auto k = compiler::compile(nest, bind);

  compiler::RunStats stats;
  compiler::Action act =
      compiler::multiply_accumulate(k.query(), /*target_rel=*/1, {2, 3});
  compiler::execute_interpreted(k.plan(), k.query(), act, &stats);

  ModelCheckReport good = model_check(k.plan(), stats);
  ASSERT_EQ(good.levels.size(), k.plan().levels.size());  // every level
  EXPECT_LT(good.error_score, 2.0);
  EXPECT_EQ(good.tuples_measured, stats.tuples);
  for (const LevelCheck& lv : good.levels) {
    EXPECT_GT(lv.produced, 0);
    EXPECT_GT(lv.ratio, 0.0);
  }

  // A plan whose statistics are off by 64x must score above threshold:
  // the validation loop exists to catch exactly this.
  compiler::Plan bad = k.plan();
  ASSERT_GE(bad.levels.size(), 2u);
  bad.levels[1].est_iterations *= 64.0;
  ModelCheckReport doctored = model_check(bad, stats);
  EXPECT_GT(doctored.error_score, 4.0);

  // The EXPLAIN-document overload joins to the same numbers, so offline
  // checks from report artifacts agree with in-process checks.
  ModelCheckReport from_doc =
      model_check(json_parse(k.explain_json()),
                  std::span<const compiler::LevelRunStats>(stats.levels),
                  stats.tuples);
  ASSERT_EQ(from_doc.levels.size(), good.levels.size());
  EXPECT_DOUBLE_EQ(from_doc.error_score, good.error_score);
  for (std::size_t i = 0; i < good.levels.size(); ++i) {
    EXPECT_EQ(from_doc.levels[i].var, good.levels[i].var);
    EXPECT_DOUBLE_EQ(from_doc.levels[i].est_produced,
                     good.levels[i].est_produced);
    EXPECT_EQ(from_doc.levels[i].produced, good.levels[i].produced);
  }

  // Renderings hold together.
  EXPECT_NE(model_check_text(good).find("error score"), std::string::npos);
  JsonValue parsed = json_parse(model_check_json(good, 2));
  EXPECT_EQ(parsed.find("levels")->items.size(), good.levels.size());
}

TEST(Report, DiffDetectsRegressionsByMetricDirection) {
  auto make_doc = [](double time_s, double speedup) {
    RunReport r("diff_test");
    r.metric("solve.time_s", time_s);
    r.metric("solve.speedup", speedup);
    return r.json();
  };
  JsonValue base = json_parse(make_doc(1.0, 4.0));

  // Within tolerance: ok.
  DiffResult same =
      diff_reports(base, json_parse(make_doc(1.1, 3.9)), /*tolerance=*/0.25);
  EXPECT_EQ(same.compared, 2);
  EXPECT_EQ(same.regressions, 0);
  EXPECT_TRUE(same.ok());

  // time_s is lower-is-better: a 2x slowdown regresses.
  DiffResult slow =
      diff_reports(base, json_parse(make_doc(2.0, 4.0)), 0.25);
  EXPECT_EQ(slow.regressions, 1);
  EXPECT_FALSE(slow.ok());

  // speedup is higher-is-better: halving it regresses, raising it never.
  DiffResult worse =
      diff_reports(base, json_parse(make_doc(1.0, 2.0)), 0.25);
  EXPECT_EQ(worse.regressions, 1);
  DiffResult better =
      diff_reports(base, json_parse(make_doc(0.5, 8.0)), 0.25);
  EXPECT_TRUE(better.ok());

  // The filter restricts the compared set.
  DiffResult filtered =
      diff_reports(base, json_parse(make_doc(9.0, 4.0)), 0.25, "speedup");
  EXPECT_EQ(filtered.compared, 1);
  EXPECT_TRUE(filtered.ok());

  // Disjoint metric names: the gate must FAIL, not silently pass.
  RunReport other("diff_test");
  other.metric("renamed.time_s", 1.0);
  DiffResult disjoint = diff_reports(base, json_parse(other.json()), 0.25);
  EXPECT_EQ(disjoint.compared, 0);
  EXPECT_FALSE(disjoint.ok());

  EXPECT_NE(diff_text(slow, 0.25).find("REGRESSED"), std::string::npos);
}

TEST(Report, RejectsDocumentsOtherThanRunV1) {
  // Unknown documents are rejected loudly, and so is the retired
  // exec snapshot shape the benches no longer write: only run.v1
  // reports diff.
  EXPECT_THROW(report_metrics(json_parse(R"({"schema": "nope"})")),
               std::exception);
  const std::string exec_doc = R"({
    "schema": "bernoulli.bench.exec.v1",
    "cases": [
      {"matrix": "grid_P1", "format": "csr", "rows": 10, "nnz": 40,
       "engines": {"linked": {"seconds": 0.05, "ns_per_nnz": 12.5}}}
    ]})";
  EXPECT_THROW(report_metrics(json_parse(exec_doc)), std::exception);
  EXPECT_THROW(report_text(json_parse(exec_doc)), std::exception);
}

TEST(Report, SolveHooksRecordEveryRankOfACompiledSolve) {
  // Mirrors DistCompile.CompiledCgMatchesHandWritten's setup: a 2-rank
  // compiled CG solve, observed through the pre/post hooks installed by
  // RunReport::observe_solves().
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 85);
  formats::Csr a = formats::Csr::from_coo(g.matrix);
  const index_t n = a.rows();
  const int P = 2;
  distrib::BlockDist rows(n, P);
  Vector diag = solvers::extract_diagonal(a);
  Vector b(static_cast<std::size_t>(n), 1.0);

  solvers::CgOptions opts;
  opts.max_iterations = 40;
  opts.tolerance = 1e-10;

  RunReport report("hooks_test");
  report.observe_solves();
  EXPECT_TRUE(solve_hooks_active());

  runtime::Machine machine(P);
  machine.run([&](runtime::Process& p) {
    auto mine = rows.owned_indices(p.rank());
    Vector bl(mine.size()), dl(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      bl[i] = b[static_cast<std::size_t>(mine[i])];
      dl[i] = diag[static_cast<std::size_t>(mine[i])];
    }
    spmd::DistKernel k = spmd::compile_dist_matvec(p, a, rows);
    Vector xc(mine.size(), 0.0);
    (void)solvers::dist_cg_compiled(p, k, dl, bl, xc, opts);
  });

  JsonValue doc = json_parse(report.json());
  const JsonValue* solves = doc.find("solves");
  ASSERT_NE(solves, nullptr);
  ASSERT_EQ(solves->items.size(), static_cast<std::size_t>(P));
  for (int rank = 0; rank < P; ++rank) {
    const JsonValue& s = solves->items[static_cast<std::size_t>(rank)];
    EXPECT_EQ(s.find("solver")->as_string(), "dist_cg_compiled");
    EXPECT_EQ(s.find("rank")->as_number(), rank);  // sorted by rank
    EXPECT_EQ(s.find("nprocs")->as_number(), P);
    EXPECT_GT(s.find("iterations")->as_number(), 0);
    EXPECT_TRUE(s.find("converged")->boolean);
    EXPECT_GT(s.find("messages")->as_number(), 0);
    EXPECT_GT(s.find("bytes")->as_number(), 0);
    // The plan EXPLAIN rode along, as a real document.
    const JsonValue* plan = s.find("plan");
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->find("schema")->as_string(), "bernoulli.explain.v1");
  }
}

TEST(Report, RunV1RoundTripsAndClearsHooksOnDestruction) {
  {
    RunReport report("roundtrip_test");
    report.config("flag", "value");
    report.config("count", static_cast<long long>(3));
    report.metric("a.first", 1.5);
    report.metric("a.speedup", 2.0);
    report.add_plan("p", R"({"schema": "bernoulli.explain.v1"})");
    CommCheck cc;
    cc.predicted_messages = cc.measured_messages = 4;
    cc.predicted_bytes = cc.measured_bytes = 256;
    report.add_comm_check("phase", cc);
    report.observe_solves();

    JsonValue doc = json_parse(report.json());
    EXPECT_EQ(doc.find("schema")->as_string(), "bernoulli.run.v1");
    EXPECT_EQ(doc.find("tool")->as_string(), "roundtrip_test");
    ASSERT_NE(doc.find("build"), nullptr);
    EXPECT_EQ(doc.find("config")->find("flag")->as_string(), "value");
    EXPECT_EQ(doc.find("metrics")->find("a.first")->as_number(), 1.5);
    ASSERT_NE(doc.find("plans")->find("p"), nullptr);
    const JsonValue* check = doc.find("comm_checks")->find("phase");
    ASSERT_NE(check, nullptr);
    EXPECT_EQ(check->find("measured_bytes")->as_number(), 256);
    // No machine ran: the critical path slot is an explicit null.
    EXPECT_EQ(doc.find("critical_path")->type,
              support::JsonValue::Type::kNull);
    // The text render accepts the full document.
    EXPECT_NE(report_text(doc).find("roundtrip_test"), std::string::npos);
  }
  // The destructor uninstalled the hooks observe_solves() placed.
  EXPECT_FALSE(solve_hooks_active());
}

}  // namespace
}  // namespace bernoulli::analysis
