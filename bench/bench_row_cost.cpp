// Per-row cost of the linked engine and the specialized .so against the
// hand kernels.
//
// y += A x in csr, ccs, bcsr(4) and sell(C=8, sigma=32) on about 1M
// stored entries each (--small: ~64k): banded n x n matrices with w
// entries per row (w from 2 to 64), and one matrix with Pareto-skewed row
// lengths (alpha 1.5, at least 2, mean ~6, random columns; most rows short,
// a few long). The linked serial engine (LinkedRunner), the specialized
// kernel (SpecializedKernel, rung 4) and the format's spmv_add run
// alternately, and each keeps its fastest of 25 runs (--small: 5), so a
// slow stretch of a shared host hits all sides alike. The table prints ns
// per stored entry for each and the difference per row against the
// kernel: (engine - kernel) / rows. A fixed per-row cost shows as a gap
// that stays flat while w grows. The specialized columns read "-" when the
// kernel cannot be built (no cc or no dlopen).
//
//   build/bench/bench_row_cost [--small]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/formats.hpp"
#include "support/rng.hpp"
#include "support/text_table.hpp"
#include "support/timer.hpp"

namespace {

using namespace bernoulli;
using namespace bernoulli::compiler;

// Banded rows: row i holds columns i - w/2 .. i - w/2 + w - 1, wrapped.
formats::Coo banded(index_t n, int w) {
  formats::TripletBuilder b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (int k = 0; k < w; ++k) {
      index_t j = (i - w / 2 + k) % n;
      if (j < 0) j += n;
      b.add(i, j, 1.0 + 0.001 * k);
    }
  return std::move(b).build();
}

// Pareto(alpha = 1.5, x_min = 2) row lengths capped at n / 20, uniform
// columns.
formats::Coo pareto(index_t n) {
  SplitMix64 rng(13);
  formats::TripletBuilder b(n, n);
  const double cap = static_cast<double>(n) / 20.0;
  for (index_t i = 0; i < n; ++i) {
    const double u = 1.0 - rng.next_double();  // (0, 1]
    const auto len = static_cast<index_t>(
        std::min(cap, 2.0 * std::pow(u, -1.0 / 1.5)));
    for (index_t k = 0; k < len; ++k)
      b.add(i, rng.next_index(n), rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc == 2 && std::string(argv[1]) == "--small";
  if (argc > 1 && !small) {
    std::cerr << "usage: bench_row_cost [--small]\n";
    return 2;
  }
  const int reps = small ? 5 : 25;
  const long long entries = small ? (1 << 16) : (1 << 20);

  TextTable table({"matrix", "format", "entries/row", "rows", "linked ns/nnz",
                   "spec ns/nnz", "kernel ns/nnz", "linked gap ns/row",
                   "spec gap ns/row"});
  for (int w : {2, 4, 8, 16, 28, 64, 0}) {
    // w == 0 is the Pareto matrix (mean ~6 entries per row).
    const index_t n =
        static_cast<index_t>(entries / (w > 0 ? w : 6) / 4 * 4);
    const formats::Coo coo = w > 0 ? banded(n, w) : pareto(n);
    Vector x(static_cast<std::size_t>(n), 1.0);
    Vector y(static_cast<std::size_t>(n), 0.0);
    for (const std::string format : {"csr", "ccs", "bcsr", "sell"}) {
      formats::Csr csr;
      formats::Ccs ccs;
      formats::Bsr bsr;
      formats::Sell sell;
      Bindings b;
      if (format == "csr") b.bind_csr("A", csr = formats::Csr::from_coo(coo));
      if (format == "ccs") b.bind_ccs("A", ccs = formats::Ccs::from_coo(coo));
      if (format == "bcsr")
        b.bind_bsr("A", bsr = formats::Bsr::from_coo(coo, 4));
      if (format == "sell")
        b.bind_sell("A", sell = formats::Sell::from_coo(coo, 8, 32));
      b.bind_dense_vector("X", ConstVectorView(x));
      b.bind_dense_vector("Y", VectorView(y));
      LoopNest nest{{{"i", n}, {"j", n}},
                    {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
      const CompiledKernel k = compile(nest, b);
      LinkedRunner runner(link_plan(k.plan(), k.query()));
      const LinkedMac mac = link_mac(k.query(), 1, {2, 3});
      const LinkedPlan spec_plan = link_plan(k.plan(), k.query());
      SpecializedKernel spec(spec_plan, mac);

      double linked = 1e30, specialized = 1e30, kernel = 1e30;
      for (int r = 0; r < reps; ++r) {
        WallTimer t;
        runner.run(mac);
        linked = std::min(linked, t.seconds());
        if (spec.ok()) {
          t.reset();
          spec.run();
          specialized = std::min(specialized, t.seconds());
        }
        t.reset();
        if (format == "csr") formats::spmv_add(csr, x, y);
        if (format == "ccs") formats::spmv_add(ccs, x, y);
        if (format == "bcsr") formats::spmv_add(bsr, x, y);
        if (format == "sell") formats::spmv_add(sell, x, y);
        kernel = std::min(kernel, t.seconds());
      }
      const double stored =
          static_cast<double>(format == "bcsr" ? bsr.stored() : coo.nnz());
      table.new_row();
      table.add(std::string(w > 0 ? "banded" : "pareto"));
      table.add(format);
      table.add(static_cast<double>(coo.nnz()) / static_cast<double>(n), 1);
      table.add(static_cast<long long>(n));
      const double rows = static_cast<double>(n);
      table.add(linked * 1e9 / stored);
      if (spec.ok())
        table.add(specialized * 1e9 / stored);
      else
        table.add(std::string("-"));
      table.add(kernel * 1e9 / stored);
      table.add((linked - kernel) * 1e9 / rows, 1);
      if (spec.ok())
        table.add((specialized - kernel) * 1e9 / rows, 1);
      else
        table.add(std::string("-"));
    }
  }
  std::cout << table.str();
  return 0;
}
