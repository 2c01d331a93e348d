#include "relation/jds_view.hpp"

namespace bernoulli::relation {

JdsView::JdsView(std::string name, const formats::Jds& m)
    : LevelStackView(std::move(name)), m_(m) {
  // Per-permuted-row entry count: row ip has entries on every jagged
  // diagonal long enough to reach it.
  rowlen_.assign(static_cast<std::size_t>(m.rows()), 0);
  auto jdptr = m.jdptr();
  for (index_t k = 0; k < m.num_jdiags(); ++k) {
    index_t len = jdptr[static_cast<std::size_t>(k) + 1] -
                  jdptr[static_cast<std::size_t>(k)];
    for (index_t ip = 0; ip < len; ++ip)
      ++rowlen_[static_cast<std::size_t>(ip)];
  }
  add_level(dense_level(m.rows()));
  LevelDescriptor cols;
  cols.kind = LevelDescriptor::Kind::kOffsets;
  cols.ind = m.colind().data();
  cols.ind_len = static_cast<index_t>(m.colind().size());
  cols.off = jdptr.data();
  cols.off_len = static_cast<index_t>(jdptr.size());
  cols.len = rowlen_.data();
  cols.len_len = static_cast<index_t>(rowlen_.size());
  add_level(cols);
  set_values(m.vals());
}

std::vector<index_t> JdsView::original_to_permuted() const {
  return {m_.iperm().begin(), m_.iperm().end()};
}

}  // namespace bernoulli::relation
