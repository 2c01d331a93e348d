// Quickstart: compile a dense matrix-vector loop against sparse storage.
//
// This walks the paper's core pipeline (§2): write the DENSE loop
//
//   DO i = 1, N
//     DO j = 1, N
//       Y(i) = Y(i) + A(i,j) * X(j)
//
// declare A sparse (CRS here), and let the compiler extract the relational
// query, compute the sparsity predicate, pick a join plan, EXPLAIN it, run
// it, and print the C it emits (the translation unit the runtime
// specializer compiles; the arrays are passed in at run time).
#include <iostream>

#include "compiler/loopnest.hpp"
#include "formats/csr.hpp"
#include "workloads/grid.hpp"

int main() {
  using namespace bernoulli;

  // A small SPD matrix from a 2-D grid problem.
  auto grid = workloads::grid2d_5pt(8, 8);
  formats::Csr a = formats::Csr::from_coo(grid.matrix);
  const auto n = static_cast<std::size_t>(a.rows());

  Vector x(n, 1.0), y(n, 0.0);

  // Bind the arrays of the dense program to storage.
  compiler::Bindings bindings;
  bindings.bind_csr("A", a);
  bindings.bind_dense_vector("X", ConstVectorView(x));
  bindings.bind_dense_vector("Y", VectorView(y));

  // The dense DOANY loop nest, exactly as in the paper's Section 2.
  compiler::LoopNest matvec{
      {{"i", a.rows()}, {"j", a.cols()}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };

  compiler::CompiledKernel kernel = compiler::compile(matvec, bindings);

  std::cout << "=== chosen plan ===\n" << kernel.describe_plan() << '\n';
  std::cout << "=== EXPLAIN (why the planner chose it) ===\n"
            << kernel.explain() << '\n';
  std::cout << "=== generated C ===\n" << kernel.emit("spmv_csr") << '\n';

  kernel.run();  // y += A x through the linked engine

  // Cross-check against the format's tuned kernel.
  Vector y_ref(n);
  formats::spmv(a, x, y_ref);
  double max_err = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::abs(y[i] - y_ref[i]));
  std::cout << "max |compiled - kernel| = " << max_err << '\n';
  std::cout << (max_err < 1e-12 ? "OK" : "MISMATCH") << '\n';
  return max_err < 1e-12 ? 0 : 1;
}
