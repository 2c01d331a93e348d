#include "relation/array_views.hpp"

#include <utility>

#include "support/error.hpp"

namespace bernoulli::relation {

// ---------------------------------------------------------------- Interval

IntervalView::IntervalView(std::string name,
                           const std::vector<index_t>& extents)
    : LevelStackView(std::move(name)) {
  BERNOULLI_CHECK(!extents.empty());
  for (index_t e : extents) {
    BERNOULLI_CHECK(e >= 0);
    add_level(dense_level(e));
  }
}

// ------------------------------------------------------------ Dense vector

DenseVectorView::DenseVectorView(std::string name, VectorView data)
    : DenseVectorView(std::move(name), ConstVectorView(data)) {
  mutable_data_ = data;
  writable_ = true;
}

DenseVectorView::DenseVectorView(std::string name, ConstVectorView data)
    : LevelStackView(std::move(name)) {
  add_level(dense_level(static_cast<index_t>(data.size())));
  set_values(data);
}

void DenseVectorView::value_add(index_t pos, value_t delta) {
  BERNOULLI_CHECK_MSG(writable(), name() << " is read-only");
  mutable_data_[static_cast<std::size_t>(pos)] += delta;
}

void DenseVectorView::value_set(index_t pos, value_t v) {
  BERNOULLI_CHECK_MSG(writable(), name() << " is read-only");
  mutable_data_[static_cast<std::size_t>(pos)] = v;
}

// ---------------------------------------------------------------- CSR/CCS

CsrView::CsrView(std::string name, const formats::Csr& m)
    : LevelStackView(std::move(name)) {
  add_level(dense_level(m.rows()));
  add_level(compressed_level(m.rowptr(), m.colind()));
  set_values(m.vals());
}

CcsView::CcsView(std::string name, const formats::Ccs& m)
    : LevelStackView(std::move(name)) {
  add_level(dense_level(m.cols()));
  add_level(compressed_level(m.colp(), m.rowind()));
  set_values(m.vals());
}

// -------------------------------------------------------------------- COO

CooView::CooView(std::string name, const formats::Coo& m)
    : LevelStackView(std::move(name)) {
  auto rowind = m.rowind();
  runptr_.push_back(0);
  for (index_t k = 0; k < m.nnz(); ++k) {
    if (distinct_rows_.empty() || distinct_rows_.back() != rowind[k]) {
      if (!distinct_rows_.empty()) runptr_.push_back(k);
      distinct_rows_.push_back(rowind[k]);
    }
  }
  runptr_.push_back(m.nnz());
  if (distinct_rows_.empty()) runptr_ = {0};
  // Level 0 positions are offsets into distinct_rows_; level 1 positions
  // are entry offsets (runptr_ segments over colind).
  add_level(list_level(distinct_rows_));
  add_level(compressed_level(runptr_, m.colind()));
  set_values(m.vals());
}

// ------------------------------------------------------------ Permutation

PermutationView::PermutationView(std::string name, std::vector<index_t> perm)
    : LevelStackView(std::move(name)), perm_(std::move(perm)) {
  iperm_.assign(perm_.size(), -1);
  for (std::size_t i = 0; i < perm_.size(); ++i) {
    index_t p = perm_[i];
    BERNOULLI_CHECK(p >= 0 && p < static_cast<index_t>(perm_.size()));
    BERNOULLI_CHECK_MSG(iperm_[static_cast<std::size_t>(p)] == -1,
                        this->name() << " is not a permutation");
    iperm_[static_cast<std::size_t>(p)] = static_cast<index_t>(i);
  }
  add_level(dense_level(static_cast<index_t>(perm_.size())));
  add_level(singleton_level(perm_));
}

// ------------------------------------------------------------ Dense matrix

DenseMatrixView::DenseMatrixView(std::string name, formats::Dense& m)
    : LevelStackView(std::move(name)), m_(m) {
  add_level(dense_level(m.rows()));
  add_level(dense_level(m.cols(), /*stride=*/m.cols()));  // pos = i*cols + j
  set_values(std::as_const(m).data());
}

void DenseMatrixView::value_add(index_t pos, value_t delta) {
  m_.data()[static_cast<std::size_t>(pos)] += delta;
}

void DenseMatrixView::value_set(index_t pos, value_t v) {
  m_.data()[static_cast<std::size_t>(pos)] = v;
}

}  // namespace bernoulli::relation
