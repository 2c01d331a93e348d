#include "formats/ell.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace bernoulli::formats {

Ell::Ell(index_t rows, index_t cols, index_t width, std::vector<index_t> colind,
         std::vector<value_t> vals, std::vector<index_t> rownnz)
    : rows_(rows),
      cols_(cols),
      width_(width),
      colind_(std::move(colind)),
      vals_(std::move(vals)),
      rownnz_(std::move(rownnz)) {
  validate();
}

index_t Ell::nnz() const {
  return std::accumulate(rownnz_.begin(), rownnz_.end(), index_t{0});
}

Ell Ell::from_coo(const Coo& a) {
  std::vector<index_t> len = a.row_lengths();
  index_t width = len.empty() ? 0 : *std::max_element(len.begin(), len.end());
  // Padded positions k*rows + i are index_t: one long row can push
  // rows*width past it.
  checked_index(static_cast<long long>(a.rows()) * width,
                "ELL padded storage rows*width");
  const auto n = static_cast<std::size_t>(a.rows());
  // Padding: column 0, value 0 — column 0 always exists for non-degenerate
  // matrices and contributes nothing to y.
  std::vector<index_t> colind(n * static_cast<std::size_t>(width), 0);
  std::vector<value_t> vals(n * static_cast<std::size_t>(width), 0.0);

  std::vector<index_t> fill(n, 0);
  auto rowind_in = a.rowind();
  auto colind_in = a.colind();
  auto vals_in = a.vals();
  for (index_t e = 0; e < a.nnz(); ++e) {
    auto i = static_cast<std::size_t>(rowind_in[static_cast<std::size_t>(e)]);
    auto k = static_cast<std::size_t>(fill[i]++);
    colind[k * n + i] = colind_in[static_cast<std::size_t>(e)];
    vals[k * n + i] = vals_in[static_cast<std::size_t>(e)];
  }
  return Ell(a.rows(), a.cols(), width, std::move(colind), std::move(vals),
             std::move(len));
}

Coo Ell::to_coo() const {
  TripletBuilder b(rows_, cols_);
  b.reserve(static_cast<std::size_t>(nnz()));
  for (index_t i = 0; i < rows_; ++i)
    for (index_t k = 0; k < rownnz_[static_cast<std::size_t>(i)]; ++k)
      b.add(i, col_at(i, k), val_at(i, k));
  return std::move(b).build();
}

value_t Ell::at(index_t i, index_t j) const {
  for (index_t k = 0; k < rownnz_[static_cast<std::size_t>(i)]; ++k)
    if (col_at(i, k) == j) return val_at(i, k);
  return 0.0;
}

void Ell::validate() const {
  const auto expect =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_);
  BERNOULLI_CHECK(colind_.size() == expect);
  BERNOULLI_CHECK(vals_.size() == expect);
  BERNOULLI_CHECK(rownnz_.size() == static_cast<std::size_t>(rows_));
  for (index_t r : rownnz_) BERNOULLI_CHECK(r >= 0 && r <= width_);
  for (index_t c : colind_)
    BERNOULLI_CHECK(c >= 0 && (c < cols_ || (c == 0 && cols_ == 0)));
}

void spmv(const Ell& a, ConstVectorView x, VectorView y) {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == a.cols());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == a.rows());
  std::fill(y.begin(), y.end(), 0.0);
  spmv_add(a, x, y);
}

void spmv_add(const Ell& a, ConstVectorView x, VectorView y) {
  const auto n = static_cast<std::size_t>(a.rows());
  const index_t width = a.width();
  auto colind = a.colind();
  auto vals = a.vals();
  // Column-major sweep: each pass streams through all rows — the ITPACK
  // vectorization pattern. Padding slots multiply 0 by x[0].
  for (index_t k = 0; k < width; ++k) {
    const index_t* c = colind.data() + static_cast<std::size_t>(k) * n;
    const value_t* v = vals.data() + static_cast<std::size_t>(k) * n;
    for (std::size_t i = 0; i < n; ++i)
      y[i] += v[i] * x[static_cast<std::size_t>(c[i])];
  }
}

}  // namespace bernoulli::formats
