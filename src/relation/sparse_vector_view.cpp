#include "relation/sparse_vector_view.hpp"

namespace bernoulli::relation {

SparseVectorView::SparseVectorView(std::string name,
                                   const formats::SparseVector& v)
    : LevelStackView(std::move(name)) {
  add_level(list_level(v.ind()));
  set_values(v.vals());
}

}  // namespace bernoulli::relation
