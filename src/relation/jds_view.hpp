// Relation view over Jagged Diagonal storage: the paper's running example
// of a format built on an index permutation (§2.2, Eq. 6).
//
// JDS stores A' — the matrix with rows permuted by decreasing length — so
// the view exposes A'(i', j, a) with i' the PERMUTED row index: hierarchy
// I' -> (J, V). Queries over the original row index i compose this view
// with a PermutationView P(i, i') built from the format's own PERM array,
// exactly the paper's
//   Q = sigma_P ( I(i,j) |><| X(j,x) |><| Y(i,y) |><| P(i,i') |><| A'(i',j,a) ).
//
// Row i' has jds.jdptr-many strided entries: the k-th is at offset
// jdptr[k] + i' while k < rowlen(i') — an offsets level over COLIND.
// Enumeration follows that stride; search is linear (JDS has no better
// row search — an honest property the planner must work around). Entries
// of a permuted row come from consecutive jagged diagonals in the row's
// original CSR order, hence sorted by column.
#pragma once

#include "formats/jds.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class JdsView final : public LevelStackView {
 public:
  JdsView(std::string name, const formats::Jds& m);

  /// The original-row -> permuted-row map (IPERM), ready to build the
  /// companion PermutationView P(i, i') for Eq. 6 queries.
  std::vector<index_t> original_to_permuted() const;

 private:
  const formats::Jds& m_;
  std::vector<index_t> rowlen_;  // entries per permuted row
};

}  // namespace bernoulli::relation
