// Custom format demo: teach the compiler a storage format it has never
// seen, from a textual specification over raw arrays — the extensibility
// claim of the paper made concrete. We invent "banded-by-row" storage: a
// dense FIRST array with each row's first stored column, plus per-row
// contiguous value runs (a simplified skyline). The compiler never learns
// what the arrays mean; it sees access methods and properties.
#include <iostream>

#include "compiler/loopnest.hpp"
#include "formats/csr.hpp"
#include "relation/format_spec.hpp"
#include "workloads/grid.hpp"

int main() {
  using namespace bernoulli;

  // A banded matrix (2-D grid Laplacian).
  auto g = workloads::grid2d_5pt(6, 6);
  formats::Csr csr = formats::Csr::from_coo(g.matrix);
  const index_t n = csr.rows();

  // The "new" format's raw arrays. For the demo we store the same
  // compressed structure under user-chosen names — the point is that the
  // compiler works from the SPEC, not from any built-in knowledge. The
  // view borrows these vectors in place, so they must outlive the kernel.
  const std::vector<index_t> row_start(csr.rowptr().begin(),
                                       csr.rowptr().end());
  const std::vector<index_t> cols(csr.colind().begin(), csr.colind().end());
  const Vector data(csr.vals().begin(), csr.vals().end());
  relation::FormatArrays arrays;
  arrays.index_arrays["ROW_START"] = row_start;
  arrays.index_arrays["COLS"] = cols;
  arrays.value_arrays["DATA"] = data;

  const std::string spec =
      "format Band {\n"
      "  level i: dense(" + std::to_string(n) + ");\n"
      "  level j: compressed(ptr=ROW_START, ind=COLS) sorted;\n"
      "  value DATA;\n"
      "}\n";
  std::cout << "=== user-supplied format specification ===\n" << spec << '\n';

  relation::GenericFormatView band(spec, arrays);

  Vector x(static_cast<std::size_t>(n), 1.0);
  Vector y(static_cast<std::size_t>(n), 0.0);
  compiler::Bindings bind;
  bind.bind_view("A", &band, {0, 1}, /*sparse=*/true);
  bind.bind_dense_vector("X", ConstVectorView(x));
  bind.bind_dense_vector("Y", VectorView(y));

  compiler::LoopNest matvec{
      {{"i", n}, {"j", n}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };
  auto kernel = compiler::compile(matvec, bind);

  std::cout << "=== plan over the custom format ===\n"
            << kernel.describe_plan() << '\n'
            << "=== generated C ===\n"
            << kernel.emit("spmv_band") << '\n';

  kernel.run();
  Vector y_ref(static_cast<std::size_t>(n));
  formats::spmv(csr, x, y_ref);
  double err = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    err = std::max(err, std::abs(y[i] - y_ref[i]));
  std::cout << "max error vs reference kernel: " << err << '\n'
            << (err < 1e-12 ? "OK" : "MISMATCH") << '\n';
  return err < 1e-12 ? 0 : 1;
}
