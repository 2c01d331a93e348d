#include "formats/dia.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace bernoulli::formats {

Dia::Dia(index_t rows, index_t cols, std::vector<index_t> offsets,
         std::vector<index_t> first, std::vector<index_t> dptr,
         std::vector<value_t> vals)
    : rows_(rows),
      cols_(cols),
      offsets_(std::move(offsets)),
      first_(std::move(first)),
      dptr_(std::move(dptr)),
      vals_(std::move(vals)) {
  validate();
}

Dia Dia::from_coo(const Coo& a) {
  // Pass 1: per-diagonal first/last stored row.
  std::map<index_t, std::pair<index_t, index_t>> extent;  // d -> (first,last)
  auto rowind = a.rowind();
  auto colind = a.colind();
  for (index_t k = 0; k < a.nnz(); ++k) {
    index_t i = rowind[static_cast<std::size_t>(k)];
    index_t d = colind[static_cast<std::size_t>(k)] - i;
    auto [it, inserted] = extent.try_emplace(d, i, i);
    if (!inserted) {
      it->second.first = std::min(it->second.first, i);
      it->second.second = std::max(it->second.second, i);
    }
  }

  // The padded length sum is formed in 64 bits: a full band of an n x n
  // matrix stores n^2 slots, past the index type from n = 46341.
  std::vector<index_t> offsets, first, dptr{0};
  offsets.reserve(extent.size());
  first.reserve(extent.size());
  long long stored = 0;
  for (const auto& [d, fl] : extent) {
    offsets.push_back(d);
    first.push_back(fl.first);
    stored += static_cast<long long>(fl.second) - fl.first + 1;
    dptr.push_back(
        checked_index(stored, "DIA padded storage sum of diagonal lengths"));
  }
  std::vector<value_t> vals(static_cast<std::size_t>(dptr.back()), 0.0);

  // Pass 2: scatter values into the skyline slots.
  for (index_t k = 0; k < a.nnz(); ++k) {
    index_t i = rowind[static_cast<std::size_t>(k)];
    index_t d = colind[static_cast<std::size_t>(k)] - i;
    auto pos = static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), d) - offsets.begin());
    vals[static_cast<std::size_t>(dptr[pos] + (i - first[pos]))] =
        a.vals()[static_cast<std::size_t>(k)];
  }
  return Dia(a.rows(), a.cols(), std::move(offsets), std::move(first),
             std::move(dptr), std::move(vals));
}

Coo Dia::to_coo() const {
  TripletBuilder b(rows_, cols_);
  b.reserve(vals_.size());
  for (index_t k = 0; k < num_diagonals(); ++k) {
    const index_t d = offsets_[static_cast<std::size_t>(k)];
    const index_t f = first_[static_cast<std::size_t>(k)];
    const index_t len = diag_len(k);
    for (index_t t = 0; t < len; ++t) {
      value_t v = vals_[static_cast<std::size_t>(dptr_[static_cast<std::size_t>(k)] + t)];
      // Interior zeros were introduced by the skyline layout, not by the
      // original matrix; dropping them reproduces the source entry set for
      // matrices without explicitly stored zeros.
      if (v != 0.0) b.add(f + t, f + t + d, v);
    }
  }
  return std::move(b).build();
}

value_t Dia::at(index_t i, index_t j) const {
  index_t d = j - i;
  auto it = std::lower_bound(offsets_.begin(), offsets_.end(), d);
  if (it == offsets_.end() || *it != d) return 0.0;
  auto k = static_cast<std::size_t>(it - offsets_.begin());
  index_t t = i - first_[k];
  if (t < 0 || t >= diag_len(static_cast<index_t>(k))) return 0.0;
  return vals_[static_cast<std::size_t>(dptr_[k] + t)];
}

void Dia::validate() const {
  BERNOULLI_CHECK(offsets_.size() == first_.size());
  BERNOULLI_CHECK(dptr_.size() == offsets_.size() + 1);
  BERNOULLI_CHECK(dptr_.empty() || dptr_.front() == 0);
  BERNOULLI_CHECK(dptr_.empty() ||
                  dptr_.back() == static_cast<index_t>(vals_.size()));
  for (std::size_t k = 0; k < offsets_.size(); ++k) {
    if (k > 0) BERNOULLI_CHECK(offsets_[k - 1] < offsets_[k]);
    const index_t d = offsets_[k];
    const index_t f = first_[k];
    const index_t len = dptr_[k + 1] - dptr_[k];
    BERNOULLI_CHECK(len >= 1);
    BERNOULLI_CHECK(f >= 0 && f + len - 1 < rows_);
    BERNOULLI_CHECK(f + d >= 0 && f + len - 1 + d < cols_);
  }
}

void spmv(const Dia& a, ConstVectorView x, VectorView y) {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == a.cols());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == a.rows());
  std::fill(y.begin(), y.end(), 0.0);
  spmv_add(a, x, y);
}

void spmv_add(const Dia& a, ConstVectorView x, VectorView y) {
  const index_t nd = a.num_diagonals();
  auto offsets = a.offsets();
  auto first = a.first();
  auto dptr = a.dptr();
  auto vals = a.vals();
  for (index_t k = 0; k < nd; ++k) {
    const index_t d = offsets[static_cast<std::size_t>(k)];
    const index_t f = first[static_cast<std::size_t>(k)];
    const index_t len = a.diag_len(k);
    const value_t* v = vals.data() + dptr[static_cast<std::size_t>(k)];
    const value_t* xs = x.data() + f + d;
    value_t* ys = y.data() + f;
    // Unit-stride streaming over the diagonal: the whole point of the
    // format for banded problems.
    for (index_t t = 0; t < len; ++t)
      ys[static_cast<std::size_t>(t)] +=
          v[static_cast<std::size_t>(t)] * xs[static_cast<std::size_t>(t)];
  }
}

}  // namespace bernoulli::formats
