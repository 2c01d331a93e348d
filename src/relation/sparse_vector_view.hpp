// Relation view over a compressed sparse vector: X(j, x). One level —
// sorted, not dense, O(log) search. Supports the paper's queries with
// sparse X, giving the planner a real merge-join opportunity.
#pragma once

#include "formats/sparse_vector.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class SparseVectorView final : public LevelStackView {
 public:
  SparseVectorView(std::string name, const formats::SparseVector& v);
};

}  // namespace bernoulli::relation
