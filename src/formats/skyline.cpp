#include "formats/skyline.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace bernoulli::formats {

Skyline Skyline::from_coo(const Coo& a) {
  BERNOULLI_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  Skyline s;
  s.first_.assign(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) s.first_[static_cast<std::size_t>(i)] = i;

  auto rowind = a.rowind();
  auto colind = a.colind();
  for (index_t k = 0; k < a.nnz(); ++k) {
    index_t i = rowind[k], j = colind[k];
    if (j <= i)
      s.first_[static_cast<std::size_t>(i)] =
          std::min(s.first_[static_cast<std::size_t>(i)], j);
    else  // structural symmetry: an upper entry implies a lower one
      s.first_[static_cast<std::size_t>(j)] =
          std::min(s.first_[static_cast<std::size_t>(j)], i);
  }
  // The envelope sum is formed in 64 bits: a full lower triangle holds
  // n(n+1)/2 entries, past the index type from n = 65536.
  s.rptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  long long envelope = 0;
  for (index_t i = 0; i < n; ++i) {
    envelope +=
        static_cast<long long>(i) - s.first_[static_cast<std::size_t>(i)] + 1;
    s.rptr_[static_cast<std::size_t>(i) + 1] =
        checked_index(envelope, "Skyline envelope size");
  }
  s.vals_.assign(static_cast<std::size_t>(s.rptr_.back()), 0.0);

  auto vals = a.vals();
  for (index_t k = 0; k < a.nnz(); ++k) {
    index_t i = rowind[k], j = colind[k];
    if (j <= i) s.at_mut(i, j) = vals[k];
  }
  s.validate();
  return s;
}

Coo Skyline::to_coo() const {
  TripletBuilder b(rows(), rows());
  for (index_t i = 0; i < rows(); ++i) {
    for (index_t j = first(i); j <= i; ++j) {
      value_t v = at(i, j);
      if (v == 0.0) continue;
      b.add(i, j, v);
      if (j != i) b.add(j, i, v);
    }
  }
  return std::move(b).build();
}

value_t Skyline::at(index_t i, index_t j) const {
  BERNOULLI_CHECK(j <= i);
  if (j < first(i)) return 0.0;
  return vals_[static_cast<std::size_t>(
      rptr_[static_cast<std::size_t>(i)] + (j - first(i)))];
}

value_t& Skyline::at_mut(index_t i, index_t j) {
  BERNOULLI_CHECK(j >= first(i) && j <= i);
  return vals_[static_cast<std::size_t>(
      rptr_[static_cast<std::size_t>(i)] + (j - first(i)))];
}

void Skyline::spmv_sym(ConstVectorView x, VectorView y) const {
  const index_t n = rows();
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == n &&
                  static_cast<index_t>(y.size()) == n);
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t i = 0; i < n; ++i) {
    const value_t* row = vals_.data() + rptr_[static_cast<std::size_t>(i)];
    const index_t f = first(i);
    value_t sum = 0.0;
    for (index_t j = f; j < i; ++j) {
      value_t v = row[static_cast<std::size_t>(j - f)];
      sum += v * x[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(j)] += v * x[static_cast<std::size_t>(i)];
    }
    sum += row[static_cast<std::size_t>(i - f)] * x[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(i)] += sum;
  }
}

void Skyline::cholesky_in_place() {
  const index_t n = rows();
  for (index_t i = 0; i < n; ++i) {
    const index_t fi = first(i);
    for (index_t j = fi; j < i; ++j) {
      // L(i,j) = (A(i,j) - sum_{k} L(i,k) L(j,k)) / L(j,j), k within both
      // envelopes: max(fi, first(j)) .. j-1.
      value_t sum = at(i, j);
      const index_t lo = std::max(fi, first(j));
      for (index_t k = lo; k < j; ++k) sum -= at(i, k) * at(j, k);
      at_mut(i, j) = sum / at(j, j);
    }
    value_t pivot = at(i, i);
    for (index_t k = fi; k < i; ++k) pivot -= at(i, k) * at(i, k);
    BERNOULLI_CHECK_MSG(pivot > 0.0,
                        "Cholesky breakdown at row " << i << " (pivot "
                                                     << pivot << ")");
    at_mut(i, i) = std::sqrt(pivot);
  }
}

void Skyline::solve_factored(ConstVectorView b, VectorView x) const {
  const index_t n = rows();
  BERNOULLI_CHECK(static_cast<index_t>(b.size()) == n &&
                  static_cast<index_t>(x.size()) == n);
  // Forward: L z = b (z kept in x).
  for (index_t i = 0; i < n; ++i) {
    value_t sum = b[static_cast<std::size_t>(i)];
    for (index_t j = first(i); j < i; ++j)
      sum -= at(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = sum / at(i, i);
  }
  // Backward: L^T x = z (column sweep over rows, reverse order).
  for (index_t i = n - 1; i >= 0; --i) {
    x[static_cast<std::size_t>(i)] /= at(i, i);
    const value_t xi = x[static_cast<std::size_t>(i)];
    for (index_t j = first(i); j < i; ++j)
      x[static_cast<std::size_t>(j)] -= at(i, j) * xi;
    if (i == 0) break;
  }
}

void Skyline::validate() const {
  const index_t n = rows();
  BERNOULLI_CHECK(rptr_.size() == static_cast<std::size_t>(n) + 1);
  BERNOULLI_CHECK(rptr_.front() == 0);
  BERNOULLI_CHECK(rptr_.back() == static_cast<index_t>(vals_.size()));
  for (index_t i = 0; i < n; ++i) {
    BERNOULLI_CHECK(first(i) >= 0 && first(i) <= i);
    BERNOULLI_CHECK(rptr_[static_cast<std::size_t>(i) + 1] -
                        rptr_[static_cast<std::size_t>(i)] ==
                    i - first(i) + 1);
  }
}

}  // namespace bernoulli::formats
