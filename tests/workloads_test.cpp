// Workload generators, i-node/clique/coloring machinery, and the full
// BlockSolve ordering pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "formats/blocksolve.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "support/error.hpp"
#include "workloads/bs_order.hpp"
#include "workloads/cliques.hpp"
#include "workloads/coloring.hpp"
#include "workloads/grid.hpp"
#include "workloads/inode.hpp"
#include "workloads/suite.hpp"

namespace bernoulli::workloads {
namespace {

using formats::Coo;
using formats::Csr;

TEST(Grid, Dimensions5pt) {
  auto g = grid2d_5pt(4, 5);
  EXPECT_EQ(g.meta.num_points, 20);
  EXPECT_EQ(g.matrix.rows(), 20);
  // Interior point has 4 neighbours + self.
  EXPECT_EQ(g.matrix.row_nnz(1 * 5 + 2), 5);
  // Corner point has 2 neighbours + self.
  EXPECT_EQ(g.matrix.row_nnz(0), 3);
}

TEST(Grid, Dimensions7pt3d) {
  auto g = grid3d_7pt(3, 3, 3);
  EXPECT_EQ(g.matrix.rows(), 27);
  // Center point (1,1,1) has 6 neighbours + self.
  EXPECT_EQ(g.matrix.row_nnz((1 * 3 + 1) * 3 + 1), 7);
}

TEST(Grid, DofBlocksExpandRows) {
  auto g = grid3d_7pt(3, 3, 3, /*dof=*/5);
  EXPECT_EQ(g.meta.num_points, 27);
  EXPECT_EQ(g.matrix.rows(), 135);
  // Center point rows couple to self-block (5) + 6 neighbour blocks (30).
  EXPECT_EQ(g.matrix.row_nnz(((1 * 3 + 1) * 3 + 1) * 5), 35);
}

TEST(Grid, SymmetricAndDiagonallyDominant) {
  for (auto g : {grid2d_5pt(6, 6, 2, 3), grid2d_9pt(5, 5, 1, 4),
                 grid3d_7pt(3, 4, 5, 3, 5)}) {
    EXPECT_TRUE(g.matrix.is_symmetric());
    formats::Dense d = formats::Dense::from_coo(g.matrix);
    for (index_t i = 0; i < d.rows(); ++i) {
      value_t offsum = 0;
      for (index_t j = 0; j < d.cols(); ++j)
        if (i != j) offsum += std::abs(d.at(i, j));
      EXPECT_GT(d.at(i, i), offsum) << "row " << i;
    }
  }
}

TEST(Grid, Deterministic) {
  auto a = grid3d_7pt(4, 4, 4, 2, 9).matrix;
  auto b = grid3d_7pt(4, 4, 4, 2, 9).matrix;
  EXPECT_EQ(a, b);
}

TEST(Grid, RejectsBadArgs) {
  EXPECT_THROW(grid2d_5pt(0, 3), Error);
  EXPECT_THROW(grid3d_7pt(2, 2, 2, 0), Error);
}

TEST(Inode, GroupsIdenticalRows) {
  // 1x3 chain with dof 2: point 0 sees columns {0..3}, point 1 sees all,
  // point 2 sees {2..5} — one i-node of 2 rows per point.
  auto g = grid2d_5pt(1, 3, 2, 7);
  Csr csr = Csr::from_coo(g.matrix);
  auto inodes = find_inodes(csr);
  ASSERT_EQ(inodes.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(inodes[p].first_row, static_cast<index_t>(2 * p));
    EXPECT_EQ(inodes[p].num_rows, 2);
  }
}

TEST(Inode, SingletonsWhenAllRowsDiffer) {
  formats::TripletBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 1.0);
  auto inodes = find_inodes(Csr::from_coo(std::move(b).build()));
  EXPECT_EQ(inodes.size(), 3u);
}

TEST(Inode, FilteredIgnoresMaskedColumns) {
  // Rows 0 and 1 differ only in columns < 2; masking those columns groups
  // them.
  formats::TripletBuilder b(2, 5);
  b.add(0, 0, 1.0);
  b.add(0, 3, 1.0);
  b.add(1, 1, 1.0);
  b.add(1, 3, 1.0);
  Csr csr = Csr::from_coo(std::move(b).build());
  EXPECT_EQ(find_inodes(csr).size(), 2u);
  auto masked =
      find_inodes_filtered(csr, 0, 2, [](index_t c) { return c >= 2; });
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked[0].num_rows, 2);
}

TEST(Cliques, NodeGraphCollapsesDof) {
  auto g = grid2d_5pt(2, 2, 3, 1);
  NodeGraph ng = node_graph_from_matrix(g.matrix, 3);
  EXPECT_EQ(ng.num_nodes, 4);
  EXPECT_TRUE(ng.adjacent(0, 1));
  EXPECT_TRUE(ng.adjacent(0, 2));
  EXPECT_FALSE(ng.adjacent(0, 3));  // diagonal of the 2x2 grid
}

TEST(Cliques, PartitionIsValidOnTriangleRichGraph) {
  auto g = grid2d_9pt(6, 6, 1, 2);
  NodeGraph ng = node_graph_from_matrix(g.matrix, 1);
  auto cliques = clique_partition(ng, 4);
  EXPECT_NO_THROW(check_clique_partition(ng, cliques));
  // A 9-pt grid has triangles, so some clique must have >= 2 nodes.
  std::size_t biggest = 0;
  for (const auto& c : cliques) biggest = std::max(biggest, c.size());
  EXPECT_GE(biggest, 2u);
}

TEST(Cliques, StencilGraphYieldsSingletonOrPairCliques) {
  // A 5-pt stencil graph is triangle-free: cliques have at most 2 nodes.
  auto g = grid2d_5pt(5, 5, 1, 2);
  NodeGraph ng = node_graph_from_matrix(g.matrix, 1);
  auto cliques = clique_partition(ng, 8);
  check_clique_partition(ng, cliques);
  for (const auto& c : cliques) EXPECT_LE(c.size(), 2u);
}

TEST(Cliques, MaxSizeRespected) {
  auto g = grid2d_9pt(6, 6, 1, 2);
  NodeGraph ng = node_graph_from_matrix(g.matrix, 1);
  for (index_t cap : {1, 2, 3}) {
    auto cliques = clique_partition(ng, cap);
    check_clique_partition(ng, cliques);
    for (const auto& c : cliques)
      EXPECT_LE(static_cast<index_t>(c.size()), cap);
  }
}

TEST(Coloring, ProperOnGrids) {
  for (auto g : {grid2d_5pt(7, 7, 1, 3), grid2d_9pt(6, 5, 1, 4),
                 grid3d_7pt(4, 4, 4, 1, 5)}) {
    NodeGraph ng = node_graph_from_matrix(g.matrix, 1);
    auto cliques = clique_partition(ng, 3);
    auto coloring = color_cliques(ng, cliques);
    EXPECT_NO_THROW(check_coloring(ng, cliques, coloring));
    EXPECT_GE(coloring.num_colors, 2);
  }
}

TEST(Coloring, SingleNodeGraphOneColor) {
  NodeGraph ng;
  ng.num_nodes = 1;
  ng.adj.resize(1);
  auto coloring = color_cliques(ng, {{0}});
  EXPECT_EQ(coloring.num_colors, 1);
}

TEST(BsOrdering, IdentityOrderingValid) {
  auto ord = formats::identity_ordering(5);
  EXPECT_EQ(ord.cliques.size(), 5u);
  EXPECT_EQ(ord.num_colors, 1);
}

TEST(BsOrdering, PipelineProducesValidOrdering) {
  auto g = grid3d_7pt(3, 3, 3, 5, 6);
  auto ord = blocksolve_ordering(g.matrix, 5);
  EXPECT_EQ(ord.rows(), g.matrix.rows());
  EXPECT_GE(ord.num_colors, 2);
  // dof unknowns of one node stay together: consecutive new indices.
  for (index_t node = 0; node < g.meta.num_points; ++node) {
    index_t base = ord.old_to_new[static_cast<std::size_t>(node * 5)];
    for (index_t d = 1; d < 5; ++d)
      EXPECT_EQ(ord.old_to_new[static_cast<std::size_t>(node * 5 + d)],
                base + d);
  }
}

TEST(BsOrdering, ColorsAreIndependentSetsOfThePermutedMatrix) {
  // With singleton cliques no two unknowns of one color are coupled: no
  // off-diagonal entry of P·A·Pᵀ has both ends in one color's range. This
  // is what lets a dependence-bearing sweep process a color in parallel.
  auto g = grid3d_7pt(4, 4, 3, 1, 4);
  auto ord = blocksolve_ordering(g.matrix, 1, /*max_clique=*/1);
  auto color_of = [&](index_t k) {
    auto it = std::upper_bound(ord.color_ptr.begin(), ord.color_ptr.end(), k);
    return it - ord.color_ptr.begin() - 1;
  };
  Coo pa = formats::BsMatrix::build(g.matrix, ord).to_coo_permuted();
  for (index_t e = 0; e < pa.nnz(); ++e) {
    const index_t i = pa.rowind()[static_cast<std::size_t>(e)];
    const index_t j = pa.colind()[static_cast<std::size_t>(e)];
    if (i != j) {
      ASSERT_NE(color_of(i), color_of(j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(BsMatrix, RoundTripsOriginalMatrix) {
  auto g = grid3d_7pt(3, 3, 2, 5, 8);
  auto ord = blocksolve_ordering(g.matrix, 5);
  auto bs = formats::BsMatrix::build(g.matrix, ord);
  EXPECT_EQ(bs.to_coo_original(), g.matrix);
}

TEST(BsMatrix, SpmvMatchesDense) {
  auto g = grid3d_7pt(3, 3, 3, 5, 10);
  auto ord = blocksolve_ordering(g.matrix, 5);
  auto bs = formats::BsMatrix::build(g.matrix, ord);
  formats::Dense d = formats::Dense::from_coo(g.matrix);

  const auto n = static_cast<std::size_t>(g.matrix.rows());
  Vector x(n), y(n), y_ref(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<value_t>(i % 17) - 8.0;
  spmv(d, x, y_ref);
  spmv(bs, x, y);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-10);
}

TEST(BsMatrix, InodesGroupDofRows) {
  // With 5 dof and singleton cliques, every off-diagonal i-node spans the
  // 5 rows of its point.
  auto g = grid3d_7pt(2, 2, 2, 5, 11);
  auto ord = blocksolve_ordering(g.matrix, 5, /*max_clique=*/1);
  auto bs = formats::BsMatrix::build(g.matrix, ord);
  ASSERT_FALSE(bs.inodes().empty());
  for (const auto& b : bs.inodes()) EXPECT_EQ(b.num_rows, 5);
}

TEST(BsMatrix, IdentityOrderingDegeneratesToDiagonalOfScalars) {
  formats::TripletBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 1, 3.0);
  b.add(2, 2, 4.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  auto a = std::move(b).build();
  auto bs = formats::BsMatrix::build(a, formats::identity_ordering(3));
  EXPECT_EQ(bs.to_coo_original(), a);
  EXPECT_EQ(bs.nnz(), 5);
}

TEST(Suite, AllEightMatricesPresentAndSquare) {
  auto suite = table1_suite();
  ASSERT_EQ(suite.size(), 8u);
  for (const auto& m : suite) {
    EXPECT_EQ(m.matrix.rows(), m.matrix.cols()) << m.name;
    EXPECT_GT(m.matrix.nnz(), 0) << m.name;
    EXPECT_TRUE(m.matrix.is_symmetric()) << m.name;
  }
}

TEST(Suite, StructuralSignaturesMatchOriginals) {
  EXPECT_EQ(suite_matrix("685_bus").matrix.rows(), 685);
  EXPECT_EQ(suite_matrix("gr_30_30").matrix.rows(), 900);
  EXPECT_EQ(suite_matrix("sherman1").matrix.rows(), 1000);
  EXPECT_EQ(suite_matrix("bcsstm27").matrix.rows(), 1224);

  // memplus analogue must have a strongly skewed row-length distribution.
  auto mem = suite_matrix("memplus").matrix;
  auto len = mem.row_lengths();
  index_t maxlen = *std::max_element(len.begin(), len.end());
  double mean = static_cast<double>(mem.nnz()) / mem.rows();
  EXPECT_GT(maxlen, 20 * mean);

  // sherman1 analogue is a 7-pt stencil: max 7 per row.
  auto sh = suite_matrix("sherman1").matrix;
  auto shlen = sh.row_lengths();
  EXPECT_EQ(*std::max_element(shlen.begin(), shlen.end()), 7);

  EXPECT_THROW(suite_matrix("no_such"), Error);
}

}  // namespace
}  // namespace bernoulli::workloads
