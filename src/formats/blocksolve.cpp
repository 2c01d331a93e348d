#include "formats/blocksolve.hpp"

#include <algorithm>
#include <numeric>

#include "formats/csr.hpp"
#include "support/error.hpp"

namespace bernoulli::formats {

void BsOrdering::validate() const {
  const index_t n = rows();
  BERNOULLI_CHECK(new_to_old.size() == old_to_new.size());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t i = 0; i < n; ++i) {
    index_t o = new_to_old[static_cast<std::size_t>(i)];
    BERNOULLI_CHECK(o >= 0 && o < n);
    BERNOULLI_CHECK_MSG(!seen[static_cast<std::size_t>(o)],
                        "new_to_old is not a permutation");
    seen[static_cast<std::size_t>(o)] = true;
    BERNOULLI_CHECK(old_to_new[static_cast<std::size_t>(o)] == i);
  }
  index_t pos = 0;
  index_t prev_color = 0;
  for (const auto& c : cliques) {
    BERNOULLI_CHECK_MSG(c.first == pos, "clique ranges must tile [0, n)");
    BERNOULLI_CHECK(c.size >= 1);
    BERNOULLI_CHECK(c.color >= prev_color);
    BERNOULLI_CHECK(c.color < num_colors);
    prev_color = c.color;
    pos += c.size;
  }
  BERNOULLI_CHECK(pos == n);
  BERNOULLI_CHECK(color_ptr.size() == static_cast<std::size_t>(num_colors) + 1);
  BERNOULLI_CHECK(color_ptr.front() == 0 && color_ptr.back() == n);
  for (std::size_t c = 0; c + 1 < color_ptr.size(); ++c)
    BERNOULLI_CHECK(color_ptr[c] <= color_ptr[c + 1]);
}

BsOrdering identity_ordering(index_t n) {
  BsOrdering ord;
  ord.dof = 1;
  ord.old_to_new.resize(static_cast<std::size_t>(n));
  std::iota(ord.old_to_new.begin(), ord.old_to_new.end(), 0);
  ord.new_to_old = ord.old_to_new;
  ord.cliques.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) ord.cliques.push_back({i, 1, 0});
  ord.num_colors = n > 0 ? 1 : 0;
  ord.color_ptr = n > 0 ? std::vector<index_t>{0, n} : std::vector<index_t>{0};
  if (n == 0) ord.color_ptr = {0};
  ord.validate();
  return ord;
}

BsMatrix BsMatrix::build(const Coo& a, BsOrdering ord) {
  BERNOULLI_CHECK(a.rows() == a.cols());
  BERNOULLI_CHECK(a.rows() == ord.rows());
  ord.validate();

  BsMatrix out;
  out.ord_ = std::move(ord);
  const BsOrdering& o = out.ord_;
  const index_t n = a.rows();

  // Permute the matrix into the new space once.
  std::vector<Triplet> perm_entries;
  perm_entries.reserve(static_cast<std::size_t>(a.nnz()));
  {
    auto rowind = a.rowind();
    auto colind = a.colind();
    auto vals = a.vals();
    for (index_t k = 0; k < a.nnz(); ++k)
      perm_entries.push_back(
          {o.old_to_new[static_cast<std::size_t>(rowind[k])],
           o.old_to_new[static_cast<std::size_t>(colind[k])], vals[k]});
  }
  Csr pcsr = Csr::from_coo(Coo(n, n, std::move(perm_entries)));

  // Clique range of each row (new space).
  std::vector<index_t> clique_of_row(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < o.cliques.size(); ++c)
    for (index_t r = 0; r < o.cliques[c].size; ++r)
      clique_of_row[static_cast<std::size_t>(o.cliques[c].first + r)] =
          static_cast<index_t>(c);

  // Dense diagonal blocks.
  out.diag_ptr_.reserve(o.cliques.size() + 1);
  out.diag_ptr_.push_back(0);
  for (const auto& c : o.cliques) {
    auto base = static_cast<index_t>(out.diag_vals_.size());
    out.diag_vals_.resize(out.diag_vals_.size() +
                              static_cast<std::size_t>(c.size) *
                                  static_cast<std::size_t>(c.size),
                          0.0);
    for (index_t r = 0; r < c.size; ++r) {
      index_t row = c.first + r;
      auto cols = pcsr.row_cols(row);
      auto vals = pcsr.row_vals(row);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        index_t j = cols[k];
        if (j >= c.first && j < c.first + c.size)
          out.diag_vals_[static_cast<std::size_t>(
              base + r * c.size + (j - c.first))] = vals[k];
      }
    }
    out.diag_ptr_.push_back(static_cast<index_t>(out.diag_vals_.size()));
  }

  // Off-diagonal i-node blocks per clique: consecutive rows with identical
  // off-clique column structure.
  for (const auto& c : o.cliques) {
    index_t r = c.first;
    const index_t end = c.first + c.size;
    while (r < end) {
      auto off_cols = [&](index_t row) {
        std::vector<index_t> cols;
        for (index_t j : pcsr.row_cols(row))
          if (j < c.first || j >= c.first + c.size) cols.push_back(j);
        return cols;
      };
      std::vector<index_t> sig = off_cols(r);
      index_t r2 = r + 1;
      while (r2 < end && off_cols(r2) == sig) ++r2;
      if (!sig.empty()) {
        InodeBlock blk;
        blk.first_row = r;
        blk.num_rows = r2 - r;
        blk.cols = sig;
        blk.vals.assign(static_cast<std::size_t>(blk.num_rows) * sig.size(),
                        0.0);
        for (index_t rr = r; rr < r2; ++rr) {
          auto cols = pcsr.row_cols(rr);
          auto vals = pcsr.row_vals(rr);
          std::size_t pos = 0;
          for (std::size_t k = 0; k < cols.size(); ++k) {
            index_t j = cols[k];
            if (j >= c.first && j < c.first + c.size) continue;
            blk.vals[static_cast<std::size_t>(rr - r) * sig.size() + pos] =
                vals[k];
            ++pos;
          }
          BERNOULLI_CHECK(pos == sig.size());
        }
        out.inodes_.push_back(std::move(blk));
      }
      r = r2;
    }
  }
  out.validate();
  return out;
}

index_t BsMatrix::nnz() const {
  std::size_t count = 0;
  for (value_t v : diag_vals_)
    if (v != 0.0) ++count;
  for (const auto& b : inodes_)
    for (value_t v : b.vals)
      if (v != 0.0) ++count;
  return static_cast<index_t>(count);
}

std::span<const value_t> BsMatrix::diag_block(index_t c) const {
  return {diag_vals_.data() + diag_ptr_[static_cast<std::size_t>(c)],
          static_cast<std::size_t>(diag_ptr_[static_cast<std::size_t>(c) + 1] -
                                   diag_ptr_[static_cast<std::size_t>(c)])};
}

void BsMatrix::spmv_permuted(ConstVectorView x, VectorView y) const {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == rows());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == rows());
  std::fill(y.begin(), y.end(), 0.0);

  // Dense diagonal blocks: small GEMVs on contiguous x/y segments.
  for (std::size_t c = 0; c < ord_.cliques.size(); ++c) {
    const auto& range = ord_.cliques[c];
    auto block = diag_block(static_cast<index_t>(c));
    const value_t* xs = x.data() + range.first;
    value_t* ys = y.data() + range.first;
    for (index_t r = 0; r < range.size; ++r) {
      const value_t* row =
          block.data() + static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(range.size);
      value_t sum = 0.0;
      for (index_t j = 0; j < range.size; ++j)
        sum += row[static_cast<std::size_t>(j)] *
               xs[static_cast<std::size_t>(j)];
      ys[static_cast<std::size_t>(r)] += sum;
    }
  }

  // I-node blocks: gather x over the shared column set once per block,
  // then a dense (num_rows x cols) GEMV — the i-node payoff.
  std::vector<value_t> gathered;
  for (const auto& b : inodes_) {
    gathered.resize(b.cols.size());
    for (std::size_t k = 0; k < b.cols.size(); ++k)
      gathered[k] = x[static_cast<std::size_t>(b.cols[k])];
    for (index_t r = 0; r < b.num_rows; ++r) {
      const value_t* row = b.vals.data() + static_cast<std::size_t>(r) * b.cols.size();
      value_t sum = 0.0;
      for (std::size_t k = 0; k < b.cols.size(); ++k) sum += row[k] * gathered[k];
      y[static_cast<std::size_t>(b.first_row + r)] += sum;
    }
  }
}

void BsMatrix::spmv_original(ConstVectorView x, VectorView y) const {
  const auto n = static_cast<std::size_t>(rows());
  Vector xp(n), yp(n);
  for (std::size_t i = 0; i < n; ++i)
    xp[static_cast<std::size_t>(ord_.old_to_new[i])] = x[i];
  spmv_permuted(xp, yp);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = yp[static_cast<std::size_t>(ord_.old_to_new[i])];
}

Coo BsMatrix::to_coo_permuted() const {
  TripletBuilder b(rows(), cols());
  // At most every stored block value; stored zeros are skipped below.
  std::size_t bound = diag_vals_.size();
  for (const auto& blk : inodes_) bound += blk.vals.size();
  b.reserve(bound);
  for (std::size_t c = 0; c < ord_.cliques.size(); ++c) {
    const auto& range = ord_.cliques[c];
    auto block = diag_block(static_cast<index_t>(c));
    for (index_t r = 0; r < range.size; ++r)
      for (index_t j = 0; j < range.size; ++j) {
        value_t v = block[static_cast<std::size_t>(r * range.size + j)];
        if (v != 0.0) b.add(range.first + r, range.first + j, v);
      }
  }
  for (const auto& blk : inodes_)
    for (index_t r = 0; r < blk.num_rows; ++r)
      for (std::size_t k = 0; k < blk.cols.size(); ++k) {
        value_t v = blk.vals[static_cast<std::size_t>(r) * blk.cols.size() + k];
        if (v != 0.0) b.add(blk.first_row + r, blk.cols[k], v);
      }
  return std::move(b).build();
}

Coo BsMatrix::to_coo_original() const {
  Coo pa = to_coo_permuted();
  std::vector<Triplet> entries;
  entries.reserve(static_cast<std::size_t>(pa.nnz()));
  auto rowind = pa.rowind();
  auto colind = pa.colind();
  auto vals = pa.vals();
  for (index_t k = 0; k < pa.nnz(); ++k)
    entries.push_back({ord_.new_to_old[static_cast<std::size_t>(rowind[k])],
                       ord_.new_to_old[static_cast<std::size_t>(colind[k])],
                       vals[k]});
  return Coo(rows(), cols(), std::move(entries));
}

void BsMatrix::validate() const {
  ord_.validate();
  BERNOULLI_CHECK(diag_ptr_.size() == ord_.cliques.size() + 1);
  index_t prev_row = -1;
  for (const auto& b : inodes_) {
    BERNOULLI_CHECK(b.num_rows >= 1);
    BERNOULLI_CHECK(b.first_row > prev_row);
    prev_row = b.first_row + b.num_rows - 1;
    BERNOULLI_CHECK(b.vals.size() ==
                    static_cast<std::size_t>(b.num_rows) * b.cols.size());
    for (std::size_t k = 0; k < b.cols.size(); ++k) {
      BERNOULLI_CHECK(b.cols[k] >= 0 && b.cols[k] < cols());
      if (k > 0) BERNOULLI_CHECK(b.cols[k - 1] < b.cols[k]);
    }
  }
}

void spmv(const BsMatrix& a, ConstVectorView x, VectorView y) {
  a.spmv_original(x, y);
}

void spmv_add(const BsMatrix& a, ConstVectorView x, VectorView y) {
  Vector tmp(y.size());
  a.spmv_original(x, tmp);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += tmp[i];
}

}  // namespace bernoulli::formats
