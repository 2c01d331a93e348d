// Seeded input families. The seed generates every matrix value, sparsity
// pattern and right-hand side; sizes and shapes are fixed per family so
// runs with different seeds measure the same amount of work.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "formats/blocksolve.hpp"
#include "support/rng.hpp"
#include "workloads/bs_order.hpp"
#include "workloads/grid.hpp"

namespace perfbench {

using bernoulli::index_t;
using bernoulli::SplitMix64;
using bernoulli::value_t;
using bernoulli::formats::Coo;
using bernoulli::formats::Csr;
using bernoulli::formats::TripletBuilder;

namespace {

using Edges = std::vector<std::pair<index_t, index_t>>;

// Symmetric, diagonally dominant SPD matrix over an edge list: negative
// couplings, diagonal = row |sum| + 1. The unit shift makes Jacobi-CG's
// iteration count independent of the seed (16 for powerlaw at 1e-8).
Coo spd_from_edges(index_t n, const Edges& edges, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(n, n);
  b.reserve(2 * edges.size() + static_cast<std::size_t>(n));
  std::vector<value_t> rowsum(static_cast<std::size_t>(n), 0.0);
  for (auto [i, j] : edges) {
    if (i == j) continue;
    const value_t v = rng.next_double(-1.0, -0.1);
    b.add(i, j, v);
    b.add(j, i, v);
    rowsum[static_cast<std::size_t>(i)] -= v;
    rowsum[static_cast<std::size_t>(j)] -= v;
  }
  for (index_t i = 0; i < n; ++i)
    b.add(i, i, rowsum[static_cast<std::size_t>(i)] + 1.0);
  return std::move(b).build();
}

// Skewed-row random matrix: row lengths follow a Pareto(alpha = 1.5,
// x_min = 5) law capped at n / 20 (mean ~14), columns uniform.
// Unsymmetric.
Coo powerlaw_coo(index_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(n, n);
  const double cap = static_cast<double>(n) / 20.0;
  for (index_t i = 0; i < n; ++i) {
    const double u = 1.0 - rng.next_double();  // (0, 1]
    const auto deg = static_cast<index_t>(
        std::min(cap, 5.0 * std::pow(u, -1.0 / 1.5)));
    for (index_t k = 0; k < deg; ++k)
      b.add(i, rng.next_index(n), rng.next_double(-1.0, 1.0));
  }
  return std::move(b).build();
}

// The same row-length law, symmetrized into an SPD system (CG).
Coo powerlaw_spd(index_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Edges edges;
  const double cap = static_cast<double>(n) / 20.0;
  for (index_t i = 0; i < n; ++i) {
    const double u = 1.0 - rng.next_double();
    const auto deg = static_cast<index_t>(
        std::min(cap, 2.5 * std::pow(u, -1.0 / 1.5)));
    for (index_t k = 0; k < deg; ++k) edges.emplace_back(i, rng.next_index(n));
  }
  return spd_from_edges(n, edges, seed ^ 0x5bd1e995ULL);
}

// Cube side of a 7-point, dof-4 grid with about `nnz` entries (112 per
// interior point).
index_t grid_side(long long nnz) {
  return std::max<index_t>(
      3, static_cast<index_t>(std::lround(std::cbrt(static_cast<double>(nnz) / 112.0))));
}

}  // namespace

Coo ladder_matrix(const Workload& w, std::uint64_t seed) {
  if (w.name == "grid3d")  // 22^3 points x 4 dof: ~1.15M entries
    return bernoulli::workloads::grid3d_7pt(22, 22, 22, 4, seed).matrix;
  return powerlaw_coo(80'000, seed);  // ~1.1M
}

index_t ladder_block(const Workload& w) { return w.name == "grid3d" ? 4 : 2; }

Csr family_matrix(const Workload& w, long long target_nnz, std::uint64_t seed) {
  if (w.name == "grid3d") {
    const index_t s = grid_side(target_nnz);
    return Csr::from_coo(bernoulli::workloads::grid3d_7pt(s, s, s, 4, seed).matrix);
  }
  return Csr::from_coo(powerlaw_coo(static_cast<index_t>(target_nnz / 14), seed));
}

CgProblem cg_problem(const Workload& w, std::uint64_t seed) {
  CgProblem out;
  if (w.name == "grid3d") {
    // The paper's problem: 7-point stencil, 5 dof per point, BlockSolve
    // ordered, 48 x 12 x 12 points (~1.2M entries, the 4-rank size of
    // bench/common.hpp's weak-scaling family, fixed here for all P).
    auto g = bernoulli::workloads::grid3d_7pt(48, 12, 12, 5, seed);
    auto ord = bernoulli::workloads::blocksolve_ordering(g.matrix, 5);
    auto bs = bernoulli::formats::BsMatrix::build(g.matrix, ord);
    out.a = Csr::from_coo(bs.to_coo_permuted());
    out.color_ptr = ord.color_ptr;
  } else {
    out.a = Csr::from_coo(powerlaw_spd(60'000, seed));
  }
  SplitMix64 rng(seed ^ 0xb0b0ULL);
  out.b.resize(static_cast<std::size_t>(out.a.rows()));
  for (value_t& v : out.b) v = rng.next_double(0.5, 1.5);
  return out;
}

}  // namespace perfbench
