// Codegen demo: the same dense program compiled against different storage
// formats produces different plans and different generated C — the
// extensibility story of the paper (§2.1): the compiler only sees access
// methods, so adding a format never changes the compilation algorithm.
//
// Modes:
//   (default)        plan summary + generated C per binding
//   --explain        full EXPLAIN tree per binding (access-method
//                    properties and cost estimates the planner consumed)
//   --report=<file>  write a bernoulli.run.v1 run report: every plan's
//                    EXPLAIN in machine form, a cost-model check joining
//                    the planner's per-level estimates against measured
//                    interpreter counts, and the counter registry
//   --trace=<file>   record a Chrome trace of the compile+run work (plan /
//                    cost / execute / join spans on the host track) and
//                    write it to <file>; combines with any mode above
#include <cstring>
#include <iostream>

#include "analysis/model_check.hpp"
#include "analysis/report.hpp"
#include "compiler/executor.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "support/rng.hpp"
#include "support/trace_cli.hpp"

namespace {

enum class Mode { kDefault, kExplain };

}  // namespace

int main(int argc, char** argv) {
  using namespace bernoulli;

  Mode mode = Mode::kDefault;
  support::ObsOptions obs;
  for (int i = 1; i < argc; ++i) {
    if (support::obs_parse_flag(argv[i], obs)) continue;
    if (std::strcmp(argv[i], "--explain") == 0) mode = Mode::kExplain;
  }

  SplitMix64 rng(11);
  formats::TripletBuilder b(6, 6);
  for (int k = 0; k < 14; ++k)
    b.add(rng.next_index(6), rng.next_index(6), rng.next_double(0.5, 1.5));
  formats::Coo coo = std::move(b).build();
  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);

  Vector x(6, 1.0), y(6, 0.0);
  formats::SparseVector sx(6, {{1, 2.0}, {4, -1.0}});

  compiler::LoopNest matvec{
      {{"i", 6}, {"j", 6}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };

  struct Case {
    const char* title;
    const char* name;
    compiler::Bindings bind;
  };
  std::vector<Case> cases;
  {
    Case c{"=== A in CRS, X dense ===", "spmv_crs", {}};
    c.bind.bind_csr("A", csr);
    c.bind.bind_dense_vector("X", ConstVectorView(x));
    c.bind.bind_dense_vector("Y", VectorView(y));
    cases.push_back(std::move(c));
  }
  {
    Case c{"=== A in CCS, X dense (note the j-outer order: CCS can\n"
           "    only reach rows through a column) ===",
           "spmv_ccs",
           {}};
    c.bind.bind_ccs("A", ccs);
    c.bind.bind_dense_vector("X", ConstVectorView(x));
    c.bind.bind_dense_vector("Y", VectorView(y));
    cases.push_back(std::move(c));
  }
  {
    Case c{"=== A in CRS, X sparse (sparsity predicate NZ(A) AND\n"
           "    NZ(X); the planner merge-joins the sorted sets) ===",
           "spmv_sparse_x",
           {}};
    c.bind.bind_csr("A", csr);
    c.bind.bind_sparse_vector("X", sx);
    c.bind.bind_dense_vector("Y", VectorView(y));
    cases.push_back(std::move(c));
  }
  {
    Case c{"=== A in COO (row level is sorted but NOT dense: empty\n"
           "    rows are skipped by enumeration) ===",
           "spmv_coo",
           {}};
    c.bind.bind_coo("A", coo);
    c.bind.bind_dense_vector("X", ConstVectorView(x));
    c.bind.bind_dense_vector("Y", VectorView(y));
    cases.push_back(std::move(c));
  }

  support::obs_begin(obs);

  for (auto& c : cases) {
    std::cout << c.title << "\n";
    auto k = compiler::compile(matvec, c.bind);
    std::fill(y.begin(), y.end(), 0.0);
    if (!obs.trace_path.empty()) k.run();  // put execute spans on the track
    if (mode == Mode::kExplain)
      std::cout << k.explain() << '\n';
    else
      std::cout << k.describe_plan() << '\n' << k.emit(c.name) << '\n';
  }

  if (!obs.report_path.empty()) {
    // Machine-form run report: one plan + model check per binding. The
    // interpreter's per-level counters are the "measured" side of the
    // cost-model validation; the demo is sequential, so there is no
    // critical path to attach.
    analysis::RunReport report("codegen_demo");
    report.config("matrix", "random 6x6, 14 nnz");
    report.config("kernels", static_cast<long long>(cases.size()));
    for (auto& c : cases) {
      auto k = compiler::compile(matvec, c.bind);
      std::fill(y.begin(), y.end(), 0.0);
      // compile() lays relations out as I=0, target=1, factors in order.
      compiler::Action act =
          compiler::multiply_accumulate(k.query(), /*target_rel=*/1, {2, 3});
      compiler::RunStats stats;
      compiler::execute_interpreted(k.plan(), k.query(), act, &stats);
      report.add_plan(c.name, k.explain_json());
      report.add_model_check(c.name, analysis::model_check(k.plan(), stats));
      report.metric(std::string("codegen.") + c.name + ".tuples",
                    static_cast<double>(stats.tuples));
    }
    report.write(obs.report_path);
  }

  // The demo is sequential — everything lands on the host track, and there
  // is zero communication to reconcile.
  support::obs_end(obs, /*commstats_messages=*/0, /*commstats_bytes=*/0);
  return 0;
}
