#include "workloads/grid.hpp"

#include <cmath>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::workloads {

namespace {

// Builds the matrix of a point graph with `dof` unknowns per point:
// every undirected point edge (p, q) becomes a dense dof x dof coupling
// block placed symmetrically (B at (p,q), B^T at (q,p)); every point gets a
// dense dof x dof diagonal block made diagonally dominant after all
// couplings are known.
GridMatrix assemble(index_t num_points,
                    const std::vector<std::pair<index_t, index_t>>& edges,
                    index_t dof, std::uint64_t seed) {
  BERNOULLI_CHECK(dof >= 1);
  SplitMix64 rng(seed);
  const index_t n = num_points * dof;
  formats::TripletBuilder b(n, n);
  // Exactly: a dof x dof block each way per edge, one per point.
  const auto block_entries =
      static_cast<std::size_t>(dof) * static_cast<std::size_t>(dof);
  b.reserve((2 * edges.size() + static_cast<std::size_t>(num_points)) *
            block_entries);

  std::vector<value_t> rowsum(static_cast<std::size_t>(n), 0.0);
  std::vector<value_t> block(block_entries);
  for (auto [p, q] : edges) {
    for (auto& v : block) v = rng.next_double(-1.0, 0.0);  // negative couplings
    for (index_t r = 0; r < dof; ++r) {
      for (index_t c = 0; c < dof; ++c) {
        value_t v = block[static_cast<std::size_t>(r) *
                              static_cast<std::size_t>(dof) +
                          static_cast<std::size_t>(c)];
        index_t i = p * dof + r, j = q * dof + c;
        b.add(i, j, v);
        b.add(j, i, v);
        rowsum[static_cast<std::size_t>(i)] += std::abs(v);
        rowsum[static_cast<std::size_t>(j)] += std::abs(v);
      }
    }
  }

  // Dense symmetric diagonal block per point; its own off-diagonal entries
  // also count toward dominance.
  for (index_t p = 0; p < num_points; ++p) {
    for (index_t r = 0; r < dof; ++r) {
      for (index_t c = r + 1; c < dof; ++c) {
        value_t v = rng.next_double(-0.5, 0.0);
        index_t i = p * dof + r, j = p * dof + c;
        b.add(i, j, v);
        b.add(j, i, v);
        rowsum[static_cast<std::size_t>(i)] += std::abs(v);
        rowsum[static_cast<std::size_t>(j)] += std::abs(v);
      }
    }
    for (index_t r = 0; r < dof; ++r) {
      index_t i = p * dof + r;
      b.add(i, i, rowsum[static_cast<std::size_t>(i)] + 1.0);
    }
  }

  GridMatrix out{std::move(b).build(), {num_points, dof, n}};
  return out;
}

}  // namespace

GridMatrix grid2d_5pt(index_t nx, index_t ny, index_t dof, std::uint64_t seed) {
  BERNOULLI_CHECK(nx >= 1 && ny >= 1);
  auto id = [&](index_t x, index_t y) { return x * ny + y; };
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t x = 0; x < nx; ++x) {
    for (index_t y = 0; y < ny; ++y) {
      if (x + 1 < nx) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < ny) edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return assemble(nx * ny, edges, dof, seed);
}

GridMatrix grid2d_9pt(index_t nx, index_t ny, index_t dof, std::uint64_t seed) {
  BERNOULLI_CHECK(nx >= 1 && ny >= 1);
  auto id = [&](index_t x, index_t y) { return x * ny + y; };
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t x = 0; x < nx; ++x) {
    for (index_t y = 0; y < ny; ++y) {
      if (x + 1 < nx) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < ny) edges.emplace_back(id(x, y), id(x, y + 1));
      if (x + 1 < nx && y + 1 < ny)
        edges.emplace_back(id(x, y), id(x + 1, y + 1));
      if (x + 1 < nx && y > 0) edges.emplace_back(id(x, y), id(x + 1, y - 1));
    }
  }
  return assemble(nx * ny, edges, dof, seed);
}

GridMatrix grid3d_7pt(index_t nx, index_t ny, index_t nz, index_t dof,
                      std::uint64_t seed) {
  BERNOULLI_CHECK(nx >= 1 && ny >= 1 && nz >= 1);
  auto id = [&](index_t x, index_t y, index_t z) {
    return (x * ny + y) * nz + z;
  };
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t x = 0; x < nx; ++x) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t z = 0; z < nz; ++z) {
        if (x + 1 < nx) edges.emplace_back(id(x, y, z), id(x + 1, y, z));
        if (y + 1 < ny) edges.emplace_back(id(x, y, z), id(x, y + 1, z));
        if (z + 1 < nz) edges.emplace_back(id(x, y, z), id(x, y, z + 1));
      }
    }
  }
  return assemble(nx * ny * nz, edges, dof, seed);
}

}  // namespace bernoulli::workloads
