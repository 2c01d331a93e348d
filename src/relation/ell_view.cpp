#include "relation/ell_view.hpp"

namespace bernoulli::relation {

EllView::EllView(std::string name, const formats::Ell& m)
    : LevelStackView(std::move(name)) {
  add_level(dense_level(m.rows()));
  // The padding slots beyond rownnz hold column 0 (from_coo zero-fills),
  // so whole-array index scans over COLIND stay within [0, cols).
  LevelDescriptor cols;
  cols.kind = LevelDescriptor::Kind::kStrided;
  cols.ind = m.colind().data();
  cols.ind_len = static_cast<index_t>(m.colind().size());
  cols.len = m.rownnz().data();
  cols.len_len = static_cast<index_t>(m.rownnz().size());
  cols.stride = m.rows();
  add_level(cols);
  set_values(m.vals());
}

}  // namespace bernoulli::relation
