// Relation view over ITPACK/ELLPACK storage: A(i, j, a) with hierarchy
// I -> (J, V). The row level is dense; the column level enumerates the
// row's real entries (skipping padding via the per-row length), sorted
// because construction packs columns in ascending order. Positions at the
// leaf encode the column-major slot k*rows + i: a strided level over
// COLIND with base = row, stride = rows. Search walks the strided row, so
// it is linear (ITPACK's Fortran kernels scan too).
#pragma once

#include "formats/ell.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class EllView final : public LevelStackView {
 public:
  EllView(std::string name, const formats::Ell& m);
};

}  // namespace bernoulli::relation
