#include "formats/sell.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace bernoulli::formats {

Sell::Sell(index_t rows, index_t cols, index_t chunk, index_t sigma,
           std::vector<index_t> cptr, std::vector<index_t> colind,
           std::vector<value_t> vals, std::vector<index_t> rowbase,
           std::vector<index_t> rowlen)
    : rows_(rows),
      cols_(cols),
      chunk_(chunk),
      sigma_(sigma),
      cptr_(std::move(cptr)),
      colind_(std::move(colind)),
      vals_(std::move(vals)),
      rowbase_(std::move(rowbase)),
      rowlen_(std::move(rowlen)) {
  nnz_ = static_cast<index_t>(
      std::accumulate(rowlen_.begin(), rowlen_.end(), index_t{0}));
  validate();
}

Sell Sell::from_coo(const Coo& a, index_t chunk, index_t sigma) {
  BERNOULLI_CHECK(chunk >= 1);
  BERNOULLI_CHECK_MSG(sigma >= chunk && sigma % chunk == 0,
                      "sigma " << sigma << " must be a positive multiple of "
                               << "the chunk size " << chunk);
  const index_t rows = a.rows();
  auto rowind = a.rowind();
  auto colind = a.colind();
  auto avals = a.vals();

  // Pass 1: row lengths. The canonical COO is row-major with ascending
  // columns inside a row, so pass 2 can copy each row as one run.
  std::vector<index_t> rowlen(static_cast<std::size_t>(rows), 0);
  for (index_t k = 0; k < a.nnz(); ++k)
    ++rowlen[static_cast<std::size_t>(rowind[k])];

  // Sorted position -> original row: length-descending (stable) inside
  // each sigma-row window.
  std::vector<index_t> order(static_cast<std::size_t>(rows));
  std::iota(order.begin(), order.end(), index_t{0});
  for (index_t w = 0; w < rows; w += sigma) {
    auto begin = order.begin() + w;
    auto end = order.begin() + std::min<index_t>(w + sigma, rows);
    std::stable_sort(begin, end, [&](index_t x, index_t y) {
      return rowlen[static_cast<std::size_t>(x)] >
             rowlen[static_cast<std::size_t>(y)];
    });
  }

  // Chunk offsets: each chunk is padded to its longest member row. A
  // partial last chunk still reserves `chunk` lanes (missing lanes have
  // length 0 and are never enumerated).
  // Chunk bases sum maxlen*C per chunk; they index storage as index_t, so
  // the running total forms in 64 bits and must fit before it is stored.
  const index_t nchunks =
      static_cast<index_t>((rows + static_cast<long long>(chunk) - 1) / chunk);
  std::vector<index_t> cptr(static_cast<std::size_t>(nchunks) + 1, 0);
  long long stored = 0;
  for (index_t ch = 0; ch < nchunks; ++ch) {
    index_t maxlen = 0;
    const index_t pend = static_cast<index_t>(
        std::min<long long>((ch + 1LL) * chunk, rows));
    for (index_t p = ch * chunk; p < pend; ++p)
      maxlen = std::max(maxlen, rowlen[static_cast<std::size_t>(
                                    order[static_cast<std::size_t>(p)])]);
    stored += static_cast<long long>(maxlen) * chunk;
    cptr[static_cast<std::size_t>(ch) + 1] =
        checked_index(stored, "SELL stored lanes sum(maxlen*C)");
  }

  std::vector<index_t> rowbase(static_cast<std::size_t>(rows), 0);
  for (index_t p = 0; p < rows; ++p)
    rowbase[static_cast<std::size_t>(order[static_cast<std::size_t>(p)])] =
        cptr[static_cast<std::size_t>(p / chunk)] + p % chunk;

  // Pass 2: copy each row's run into its lane.
  std::vector<index_t> cind(static_cast<std::size_t>(cptr.back()), 0);
  std::vector<value_t> vals(static_cast<std::size_t>(cptr.back()), 0.0);
  for (index_t i = 0, k = 0; i < rows; ++i) {
    const index_t base = rowbase[static_cast<std::size_t>(i)];
    const index_t len = rowlen[static_cast<std::size_t>(i)];
    for (index_t e = 0; e < len; ++e, ++k) {
      const auto slot = static_cast<std::size_t>(base + e * chunk);
      cind[slot] = colind[k];
      vals[slot] = avals[static_cast<std::size_t>(k)];
    }
  }
  return Sell(rows, a.cols(), chunk, sigma, std::move(cptr), std::move(cind),
              std::move(vals), std::move(rowbase), std::move(rowlen));
}

Coo Sell::to_coo() const {
  TripletBuilder b(rows_, cols_);
  for (index_t i = 0; i < rows_; ++i) {
    const index_t base = rowbase_[static_cast<std::size_t>(i)];
    const index_t len = rowlen_[static_cast<std::size_t>(i)];
    for (index_t k = 0; k < len; ++k) {
      const auto slot = static_cast<std::size_t>(base + k * chunk_);
      b.add(i, colind_[slot], vals_[slot]);
    }
  }
  return std::move(b).build();
}

value_t Sell::at(index_t i, index_t j) const {
  const index_t base = rowbase_[static_cast<std::size_t>(i)];
  const index_t len = rowlen_[static_cast<std::size_t>(i)];
  for (index_t k = 0; k < len; ++k) {
    const auto slot = static_cast<std::size_t>(base + k * chunk_);
    if (colind_[slot] == j) return vals_[slot];
  }
  return 0.0;
}

void Sell::validate() const {
  BERNOULLI_CHECK(chunk_ >= 1);
  BERNOULLI_CHECK(sigma_ >= chunk_ && sigma_ % chunk_ == 0);
  BERNOULLI_CHECK(rowbase_.size() == static_cast<std::size_t>(rows_));
  BERNOULLI_CHECK(rowlen_.size() == static_cast<std::size_t>(rows_));
  BERNOULLI_CHECK(!cptr_.empty() && cptr_.front() == 0);
  BERNOULLI_CHECK(cptr_.back() == static_cast<index_t>(colind_.size()));
  BERNOULLI_CHECK(vals_.size() == colind_.size());
  const index_t nchunks = num_chunks();
  BERNOULLI_CHECK(nchunks == (rows_ == 0 ? 0 : (rows_ + chunk_ - 1) / chunk_));
  for (index_t ch = 0; ch < nchunks; ++ch) {
    const index_t width =
        cptr_[static_cast<std::size_t>(ch) + 1] -
        cptr_[static_cast<std::size_t>(ch)];
    BERNOULLI_CHECK(width >= 0 && width % chunk_ == 0);
  }
  for (index_t i = 0; i < rows_; ++i) {
    const index_t base = rowbase_[static_cast<std::size_t>(i)];
    const index_t len = rowlen_[static_cast<std::size_t>(i)];
    BERNOULLI_CHECK(len >= 0);
    if (len == 0) continue;
    BERNOULLI_CHECK(base >= 0);
    // The row's last slot must stay inside the value array.
    BERNOULLI_CHECK(base + (len - 1) * chunk_ <
                    static_cast<index_t>(colind_.size()));
    for (index_t k = 0; k < len; ++k) {
      const index_t j =
          colind_[static_cast<std::size_t>(base + k * chunk_)];
      BERNOULLI_CHECK(j >= 0 && j < cols_);
    }
  }
}

void spmv(const Sell& a, ConstVectorView x, VectorView y) {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == a.cols());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == a.rows());
  std::fill(y.begin(), y.end(), 0.0);
  spmv_add(a, x, y);
}

void spmv_add(const Sell& a, ConstVectorView x, VectorView y) {
  const index_t chunk = a.chunk();
  auto rowbase = a.rowbase();
  auto rowlen = a.rowlen();
  auto colind = a.colind();
  auto vals = a.vals();
  // Per ORIGINAL row, ascending k: the FP sum order matches CSR exactly,
  // so results are bitwise-identical to the CSR kernel.
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t base = rowbase[static_cast<std::size_t>(i)];
    const index_t len = rowlen[static_cast<std::size_t>(i)];
    value_t sum = 0.0;
    for (index_t k = 0; k < len; ++k) {
      const auto slot = static_cast<std::size_t>(base + k * chunk);
      sum += vals[slot] * x[static_cast<std::size_t>(colind[slot])];
    }
    y[static_cast<std::size_t>(i)] += sum;
  }
}

}  // namespace bernoulli::formats
