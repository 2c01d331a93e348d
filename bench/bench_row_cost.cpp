// Per-row cost of the linked engine against the hand kernels.
//
// y += A x on banded n x n matrices with w stored entries per row (about
// 1M entries each, w from 2 to 64), in csr, ccs and bcsr(4). The linked
// serial engine (LinkedRunner) and the format's spmv_add run alternately,
// and each keeps its fastest of 25 runs (--small: 5 runs on ~64k-entry
// matrices), so a slow stretch of a shared host hits both sides alike.
// The table prints ns per stored entry for both and the difference per
// row: (linked - kernel) / rows. A fixed per-row cost shows as a gap that
// stays flat while w grows.
//
//   build/bench/bench_row_cost [--small]
#include <algorithm>
#include <iostream>
#include <string>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc == 2 && std::string(argv[1]) == "--small";
  if (argc > 1 && !small) {
    std::cerr << "usage: bench_row_cost [--small]\n";
    return 2;
  }
  const int reps = small ? 5 : 25;
  const long long entries = small ? (1 << 16) : (1 << 20);

  TextTable table({"format", "entries/row", "rows", "linked ns/nnz",
                   "kernel ns/nnz", "gap ns/row"});
  for (int w : {2, 4, 8, 16, 28, 64}) {
    const index_t n = static_cast<index_t>(entries / w / 4 * 4);
    const formats::Coo coo = banded(n, w);
    Vector x(static_cast<std::size_t>(n), 1.0);
    Vector y(static_cast<std::size_t>(n), 0.0);
    for (const std::string format : {"csr", "ccs", "bcsr"}) {
      formats::Csr csr;
      formats::Ccs ccs;
      formats::Bsr bsr;
      Bindings b;
      if (format == "csr") b.bind_csr("A", csr = formats::Csr::from_coo(coo));
      if (format == "ccs") b.bind_ccs("A", ccs = formats::Ccs::from_coo(coo));
      if (format == "bcsr")
        b.bind_bsr("A", bsr = formats::Bsr::from_coo(coo, 4));
      b.bind_dense_vector("X", ConstVectorView(x));
      b.bind_dense_vector("Y", VectorView(y));
      LoopNest nest{{{"i", n}, {"j", n}},
                    {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
      const CompiledKernel k = compile(nest, b);
      LinkedRunner runner(link_plan(k.plan(), k.query()));
      const LinkedMac mac = link_mac(k.query(), 1, {2, 3});

      double linked = 1e30, kernel = 1e30;
      for (int r = 0; r < reps; ++r) {
        WallTimer t;
        runner.run(mac);
        linked = std::min(linked, t.seconds());
        t.reset();
        if (format == "csr") formats::spmv_add(csr, x, y);
        if (format == "ccs") formats::spmv_add(ccs, x, y);
        if (format == "bcsr") formats::spmv_add(bsr, x, y);
        kernel = std::min(kernel, t.seconds());
      }
      const double stored =
          static_cast<double>(format == "bcsr" ? bsr.stored() : coo.nnz());
      table.new_row();
      table.add(format);
      table.add(w);
      table.add(static_cast<long long>(n));
      table.add(linked * 1e9 / stored);
      table.add(kernel * 1e9 / stored);
      table.add((linked - kernel) * 1e9 / static_cast<double>(n), 1);
    }
  }
  std::cout << table.str();
  return 0;
}
