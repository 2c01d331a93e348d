// Engine ladder: compile y += A x once per (matrix, format) cell, then
// repeat the SpMV on three rungs — linked serial (LinkedRunner),
// ParallelRunner at T threads, and the specialized .so — in interleaved
// rounds. Each sample is one block of back-to-back runs timed as a whole;
// a round's figure per rung is the geomean over cells, and a metric is
// the lowest decile over the run's rounds. The traced run adds the hand kernel
// rung (formats::spmv_add) and the single-layer probes.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/bsr.hpp"
#include "formats/ccs.hpp"
#include "formats/sell.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace bernoulli;
using namespace bernoulli::compiler;

namespace {

enum Rung { kLinked, kParallel, kSpecialized, kKernel, kRungs };
// The quantile of a rung's round samples every ladder metric reports.
constexpr double kQuantile = 0.1;
const char* const kRungName[kRungs] = {"linked", "parallel", "specialized",
                                       "kernel"};
const char* const kRungSpan[kRungs] = {
    "compiler.LinkedRunner::run", "compiler.ParallelRunner::run",
    "compiler.SpecializedKernel::run", "formats::spmv_add"};

// One (matrix, format) cell: storage, operands and every rung's runner.
// Held by unique_ptr and never moved: views, plans and the specialized
// kernel borrow the members.
struct Cell {
  std::string format;
  index_t nnz = 0;  // logical entries (shared by all formats of the matrix)
  std::unique_ptr<formats::Csr> csr;
  std::unique_ptr<formats::Ccs> ccs;
  std::unique_ptr<formats::Sell> sell;
  std::unique_ptr<formats::Bsr> bsr;
  Vector x, y;
  std::unique_ptr<Bindings> bindings;
  std::unique_ptr<CompiledKernel> kernel;
  std::unique_ptr<LinkedRunner> linked;
  std::unique_ptr<ParallelRunner> parallel;
  std::unique_ptr<LinkedPlan> spec_plan;
  std::unique_ptr<LinkedMac> mac;
  std::unique_ptr<SpecializedKernel> spec;
  int reps = 1;                          // runs per timed block
  std::vector<double> samples[kRungs];   // ns per entry, one per block
  // The current epoch's traced / untraced split of the same blocks.
  std::vector<double> traced[kRungs];
  std::vector<double> untraced[kRungs];
  std::vector<double> overhead[kRungs];  // per-epoch traced / untraced
  double ns[kRungs] = {};                // kQuantile of samples

  void run(Rung r) {
    switch (r) {
      case kLinked: linked->run(*mac); break;
      case kParallel: parallel->run(*mac); break;
      case kSpecialized: spec->run(); break;
      case kKernel:
        if (csr) formats::spmv_add(*csr, x, y);
        else if (ccs) formats::spmv_add(*ccs, x, y);
        else if (sell) formats::spmv_add(*sell, x, y);
        else formats::spmv_add(*bsr, x, y);
        break;
      default: break;
    }
  }
};

struct SetupTimes {
  double convert = 0, plan = 0, link = 0, specialize = 0, total = 0;
};

double since(long long t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// y += A x over bindings that hold A, X and Y: the one kernel every rung,
// probe and direct run compiles.
CompiledKernel compile_spmv(const Bindings& b, index_t rows, index_t cols) {
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  return compile(nest, b);
}

// Its multiply-accumulate. compile() lays relations out as I=0, target=1,
// factors in order.
LinkedMac spmv_mac(const CompiledKernel& k) { return link_mac(k.query(), 1, {2, 3}); }

// Builds one cell and books its set-up time by layer.
std::unique_ptr<Cell> build_cell(const std::string& format,
                                 const formats::Coo& coo, index_t block,
                                 const Vector& x, int threads,
                                 SetupTimes& st) {
  auto c = std::make_unique<Cell>();
  c->format = format;
  c->nnz = coo.nnz();
  c->x = x;
  c->y.assign(static_cast<std::size_t>(coo.rows()), 0.0);

  long long t = now_ns();
  if (format == "csr") c->csr = std::make_unique<formats::Csr>(formats::Csr::from_coo(coo));
  if (format == "ccs") c->ccs = std::make_unique<formats::Ccs>(formats::Ccs::from_coo(coo));
  if (format == "sell")
    c->sell = std::make_unique<formats::Sell>(formats::Sell::from_coo(coo, 8, 32));
  if (format == "bcsr")
    c->bsr = std::make_unique<formats::Bsr>(formats::Bsr::from_coo(coo, block));
  st.convert += since(t);

  t = now_ns();
  c->bindings = std::make_unique<Bindings>();
  if (c->csr) c->bindings->bind_csr("A", *c->csr);
  if (c->ccs) c->bindings->bind_ccs("A", *c->ccs);
  if (c->sell) c->bindings->bind_sell("A", *c->sell);
  if (c->bsr) c->bindings->bind_bsr("A", *c->bsr);
  c->bindings->bind_dense_vector("X", ConstVectorView(c->x));
  c->bindings->bind_dense_vector("Y", VectorView(c->y));
  c->kernel = std::make_unique<CompiledKernel>(compile_spmv(*c->bindings, coo.rows(), coo.cols()));
  st.plan += since(t);

  t = now_ns();
  c->linked = std::make_unique<LinkedRunner>(link_plan(c->kernel->plan(), c->kernel->query()));
  c->parallel = std::make_unique<ParallelRunner>(
      link_plan(c->kernel->plan(), c->kernel->query()), threads);
  c->spec_plan = std::make_unique<LinkedPlan>(link_plan(c->kernel->plan(), c->kernel->query()));
  c->mac = std::make_unique<LinkedMac>(spmv_mac(*c->kernel));
  st.link += since(t);

  t = now_ns();
  c->spec = std::make_unique<SpecializedKernel>(*c->spec_plan, *c->mac);
  st.specialize += since(t);
  return c;
}

// y = A x by a plain loop over the generating COO, plus sum |a_ij x_j| per
// row for the error bound.
void reference(const formats::Coo& a, const Vector& x, Vector& y, Vector& mag) {
  y.assign(static_cast<std::size_t>(a.rows()), 0.0);
  mag.assign(static_cast<std::size_t>(a.rows()), 0.0);
  const auto ri = a.rowind();
  const auto ci = a.colind();
  const auto v = a.vals();
  for (std::size_t k = 0; k < v.size(); ++k) {
    const double p = v[k] * x[static_cast<std::size_t>(ci[k])];
    y[static_cast<std::size_t>(ri[k])] += p;
    mag[static_cast<std::size_t>(ri[k])] += std::abs(p);
  }
}

// The oracle's relative bound: every row within 1e-12 of sum |a_ij x_j|
// (rounding of a length-n dot product is far below this for n < 1e4).
bool matches_reference(const Vector& y, const Vector& ref, const Vector& mag) {
  for (std::size_t i = 0; i < y.size(); ++i)
    if (!(std::abs(y[i] - ref[i]) <= 1e-12 * mag[i] + 1e-300)) return false;
  return true;
}

// One LinkedRunner::run on a near-empty 8x8 diagonal matrix: the engine's
// fixed per-run cost.
double run_floor_us() {
  formats::TripletBuilder b(8, 8);
  for (index_t i = 0; i < 8; ++i) b.add(i, i, 1.0 + i);
  return linked_run_p50_us(formats::Csr::from_coo(std::move(b).build()), Vector(8, 1.0));
}

class Ladder final : public Phase {
 public:
  explicit Ladder(Context& ctx) : ctx_(ctx) {}

  double setup() override {
    const Workload& w = *ctx_.workload;
    const formats::Coo coo = ladder_matrix(w, ctx_.seed);
    const index_t block = ladder_block(w);
    Vector x(static_cast<std::size_t>(coo.cols()));
    SplitMix64 rng(ctx_.seed ^ 0x7a3dULL);
    for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
    Vector ref, mag;
    reference(coo, x, ref, mag);
    std::fprintf(stderr, "[spmv_ladder] %s: %d x %d, %d entries, bcsr block %d\n",
                 w.name.c_str(), coo.rows(), coo.cols(), coo.nnz(), block);

    // Set-up, repeated; the last repeat's cells are measured.
    constexpr int kSetupReps = 3;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      cells_.clear();
      SetupTimes st;
      const long long t0 = now_ns();
      for (const std::string& f : ladder_formats()) {
        SpanScope span(ctx_.tracer, "ladder.setup_cell");
        cells_.push_back(build_cell(f, coo, block, x, ctx_.threads, st));
      }
      st.total = since(t0);
      setups_.push_back(st);
    }

    // Oracle: every rung's y against the plain loop, and rungs of one
    // format bitwise-equal to each other.
    for (auto& c : cells_) {
      if (!c->spec->ok()) {
        ++fallbacks_;
        std::fprintf(stderr, "[spmv_ladder] %s specialized fallback: %s\n",
                     c->format.c_str(), c->spec->note().c_str());
      }
      ctx_.check(c->spec->ok(), "specialized kernel fell back for " + c->format);
      Vector first;
      for (Rung r : {kLinked, kParallel, kSpecialized, kKernel}) {
        if (r == kSpecialized && !c->spec->ok()) continue;
        std::fill(c->y.begin(), c->y.end(), 0.0);
        c->run(r);
        ctx_.check(matches_reference(c->y, ref, mag),
                   c->format + " " + kRungName[r] + " differs from the reference");
        if (r == kKernel) continue;  // hand kernels may order sums differently
        if (first.empty()) first = c->y;
        else ctx_.check(c->y == first, c->format + " " + kRungName[r] +
                                           " not bitwise-equal to linked");
      }
      // Block size: enough runs for ~1 ms per timed block.
      const long long t0 = now_ns();
      c->run(kLinked);
      const double one = static_cast<double>(now_ns() - t0);
      c->reps = std::clamp(static_cast<int>(1e6 / std::max(one, 1.0)), 1, 1000);
    }
    return median_setup(&SetupTimes::total);
  }

  // Timed rounds, interleaving cells and rungs. The traced run alternates
  // blocks of four traced and untraced rounds (every cell and rung
  // rotation equally often) to measure the tracing overhead.
  void epoch(int, double budget_s) override {
    const int nrungs = ctx_.trace ? kRungs : kKernel;
    const bool tracing = ctx_.tracer.enabled();
    for (auto& c : cells_)
      for (int r = 0; r < kRungs; ++r) {
        c->traced[r].clear();
        c->untraced[r].clear();
      }
    const long long deadline = now_ns() + static_cast<long long>(budget_s * 1e9);
    for (int n = 0; n < 2 || now_ns() < deadline; ++n, ++round_) {
      const bool traced_round = tracing && (round_ / 4) % 2 == 0;
      ctx_.tracer.enable(traced_round);
      SpanScope round_span(ctx_.tracer, "ladder.round", -1, round_);
      for (std::size_t k = 0; k < cells_.size(); ++k) {
        Cell& c = *cells_[(k + static_cast<std::size_t>(round_)) % cells_.size()];
        for (int j = 0; j < nrungs; ++j) {
          const Rung r = static_cast<Rung>((j + round_) % nrungs);
          if (r == kSpecialized && fallbacks_ > 0) continue;
          const long long t0 = now_ns();
          for (int i = 0; i < c.reps; ++i) {
            SpanScope call(ctx_.tracer, kRungSpan[r], round_span.index(), round_);
            c.run(r);
          }
          const double ns = static_cast<double>(now_ns() - t0) /
                            (static_cast<double>(c.reps) * c.nnz);
          c.samples[r].push_back(ns);
          if (tracing) (traced_round ? c.traced : c.untraced)[r].push_back(ns);
        }
      }
      // The round's figure per rung: geomean over cells of this round's
      // samples.
      for (int r = 0; r < nrungs; ++r) {
        std::vector<double> cell;
        for (auto& c : cells_)
          if (!c->samples[r].empty()) cell.push_back(c->samples[r].back());
        if (cell.size() == cells_.size()) round_ns_[r].push_back(geomean(cell));
      }
    }
    ctx_.tracer.enable(tracing);
    for (auto& c : cells_)
      for (int r = 0; r < nrungs; ++r)
        if (!c->traced[r].empty() && !c->untraced[r].empty())
          c->overhead[r].push_back(median(c->traced[r]) / median(c->untraced[r]));
  }

  void finish() override {
    // End-to-end: the lowest decile over rounds of the round geomean. Per
    // layer: the lowest decile of each cell's samples. A 50 s run has 110-270
    // short rounds, so the decile rests on 11 or more of them.
    const char* const e2e[kKernel] = {"spmv_linked_ns_per_nnz", "spmv_threaded_ns_per_nnz",
                                      "spmv_specialized_ns_per_nnz"};
    for (int r = 0; r < kKernel; ++r) ctx_.set_samples(e2e[r], round_ns_[r], kQuantile);
    for (auto& c : cells_)
      for (int r = 0; r < kRungs; ++r)
        c->ns[r] = c->samples[r].empty() ? 0.0 : quantile(c->samples[r], kQuantile);
    std::fprintf(stderr, "[spmv_ladder] %d rounds\n", round_);
    if (!ctx_.trace) return;

    ctx_.set("formats.convert_s", median_setup(&SetupTimes::convert));
    ctx_.set("compiler.plan_s", median_setup(&SetupTimes::plan));
    ctx_.set("compiler.link_s", median_setup(&SetupTimes::link));
    ctx_.set("compiler.specialize_s", median_setup(&SetupTimes::specialize));
    ctx_.set("compiler.specialize_fallbacks", static_cast<double>(fallbacks_));
    std::vector<double> resid;
    for (const SetupTimes& s : setups_)
      resid.push_back((s.total - s.convert - s.plan - s.link - s.specialize) / s.total);
    ctx_.set("recon.setup_residual_frac", median(resid));

    std::vector<double> roof[kKernel], eff, overhead;
    for (auto& c : cells_) {
      const std::string& f = c->format;
      for (int r = 0; r < kRungs; ++r) {
        const std::string layer = r == kKernel ? "formats.kernel" : std::string("compiler.") + kRungName[r];
        ctx_.set(layer + ".ns_per_nnz." + f, c->ns[r]);
      }
      const PlanFootprint& fp = c->linked->linked().footprint;
      const double bytes = fp.exact ? static_cast<double>(fp.total_bytes()) : 0.0;
      ctx_.set("compiler.footprint.bytes_per_nnz." + f, bytes / c->nnz);
      for (int r = 0; r < kKernel; ++r) {
        const double base = (r == kParallel ? ctx_.stream_gbps_threaded : ctx_.stream_gbps) * 1e9;
        const double secs = c->ns[r] * 1e-9 * c->nnz;
        if (bytes > 0 && secs > 0) roof[r].push_back(bytes / secs / base);
      }
      if (c->ns[kParallel] > 0) eff.push_back(c->ns[kLinked] / (ctx_.threads * c->ns[kParallel]));
      // Useful multiply-adds (logical entries) per tuple the run produced:
      // below 1 where a format stores fill (bcsr blocks, sell padding that
      // the plan enumerates). The plan's own tuples / enumerated ratio is 1
      // for every SpMV plan here (all probes hit), so it says nothing.
      RunStats rs;
      std::fill(c->y.begin(), c->y.end(), 0.0);
      c->linked->run(*c->mac, &rs);
      ctx_.set("compiler.useful_frac." + f,
               rs.tuples > 0 ? static_cast<double>(c->nnz) / static_cast<double>(rs.tuples) : 0.0);
      if (!c->overhead[kLinked].empty()) overhead.push_back(median(c->overhead[kLinked]));
    }
    for (int r = 0; r < kKernel; ++r)
      ctx_.set(std::string("compiler.") + kRungName[r] + ".roof_frac", geomean(roof[r]));
    ctx_.set("compiler.parallel.efficiency", geomean(eff));
    ctx_.set("trace.overhead_frac", geomean(overhead) - 1.0);
    ctx_.set("compiler.linked.run_floor_us", run_floor_us());
  }

 private:
  double median_setup(double SetupTimes::*m) const {
    std::vector<double> v;
    for (const SetupTimes& s : setups_) v.push_back(s.*m);
    return median(std::move(v));
  }

  Context& ctx_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<SetupTimes> setups_;
  long long fallbacks_ = 0;
  int round_ = 0;
  std::vector<double> round_ns_[kRungs];  // per round: geomean over cells
};

}  // namespace

double linked_run_p50_us(const formats::Csr& a, const Vector& x) {
  Vector y(static_cast<std::size_t>(a.rows()), 0.0);
  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  const CompiledKernel k = compile_spmv(b, a.rows(), a.cols());
  LinkedRunner runner(link_plan(k.plan(), k.query()));
  const LinkedMac mac = spmv_mac(k);
  std::vector<double> t;
  for (int i = 0; i < 2000; ++i) {
    const long long t0 = now_ns();
    std::fill(y.begin(), y.end(), 0.0);
    runner.run(mac);
    if (i >= 100) t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(t));
}

std::unique_ptr<Phase> make_spmv_ladder(Context& ctx) { return std::make_unique<Ladder>(ctx); }

}  // namespace perfbench
