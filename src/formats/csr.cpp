#include "formats/csr.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace bernoulli::formats {

Csr::Csr(index_t rows, index_t cols, std::vector<index_t> rowptr,
         std::vector<index_t> colind, std::vector<value_t> vals)
    : rows_(rows),
      cols_(cols),
      rowptr_(std::move(rowptr)),
      colind_(std::move(colind)),
      vals_(std::move(vals)) {
  validate();
}

namespace {

std::vector<index_t> row_pointers(const Coo& a) {
  std::vector<index_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (index_t r : a.rowind()) ++rowptr[static_cast<std::size_t>(r) + 1];
  for (std::size_t i = 1; i < rowptr.size(); ++i) rowptr[i] += rowptr[i - 1];
  return rowptr;
}

}  // namespace

// Canonical Coo is already row-major sorted with sorted columns, so its
// column and value arrays are the CSR's as they stand.
Csr Csr::from_coo(const Coo& a) {
  return Csr(a.rows(), a.cols(), row_pointers(a),
             std::vector<index_t>(a.colind().begin(), a.colind().end()),
             std::vector<value_t>(a.vals().begin(), a.vals().end()));
}

Csr Csr::from_coo(Coo&& a) {
  std::vector<index_t> rowptr = row_pointers(a);
  std::vector<index_t>().swap(a.rowind_);
  return Csr(a.rows(), a.cols(), std::move(rowptr),
             std::exchange(a.colind_, {}), std::exchange(a.vals_, {}));
}

Csr::Arrays Csr::release() && {
  Arrays out{std::exchange(rowptr_, {}), std::exchange(colind_, {}),
             std::exchange(vals_, {})};
  rows_ = cols_ = 0;
  return out;
}

Coo Csr::to_coo() const {
  TripletBuilder b(rows_, cols_);
  b.reserve(vals_.size());
  for (index_t i = 0; i < rows_; ++i) {
    auto cols = row_cols(i);
    auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) b.add(i, cols[k], vals[k]);
  }
  return std::move(b).build();
}

value_t Csr::at(index_t i, index_t j) const {
  auto cols = row_cols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it != cols.end() && *it == j)
    return row_vals(i)[static_cast<std::size_t>(it - cols.begin())];
  return 0.0;
}

void Csr::validate() const {
  BERNOULLI_CHECK(rowptr_.size() == static_cast<std::size_t>(rows_) + 1);
  BERNOULLI_CHECK(rowptr_.front() == 0);
  BERNOULLI_CHECK(rowptr_.back() == static_cast<index_t>(vals_.size()));
  BERNOULLI_CHECK(colind_.size() == vals_.size());
  for (index_t i = 0; i < rows_; ++i) {
    BERNOULLI_CHECK(rowptr_[static_cast<std::size_t>(i)] <=
                    rowptr_[static_cast<std::size_t>(i) + 1]);
    auto cols = row_cols(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      BERNOULLI_CHECK(cols[k] >= 0 && cols[k] < cols_);
      if (k > 0)
        BERNOULLI_CHECK_MSG(cols[k - 1] < cols[k],
                            "row " << i << " columns not strictly sorted");
    }
  }
}

void spmv(const Csr& a, ConstVectorView x, VectorView y) {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == a.cols());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == a.rows());
  const index_t m = a.rows();
  auto rowptr = a.rowptr();
  auto colind = a.colind();
  auto vals = a.vals();
  for (index_t i = 0; i < m; ++i) {
    value_t sum = 0.0;
    const index_t end = rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t k = rowptr[static_cast<std::size_t>(i)]; k < end; ++k)
      sum += vals[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colind[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(i)] = sum;
  }
}

void spmv_add(const Csr& a, ConstVectorView x, VectorView y) {
  const index_t m = a.rows();
  auto rowptr = a.rowptr();
  auto colind = a.colind();
  auto vals = a.vals();
  for (index_t i = 0; i < m; ++i) {
    value_t sum = 0.0;
    const index_t end = rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t k = rowptr[static_cast<std::size_t>(i)]; k < end; ++k)
      sum += vals[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colind[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(i)] += sum;
  }
}

}  // namespace bernoulli::formats
