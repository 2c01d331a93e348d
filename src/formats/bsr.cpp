#include "formats/bsr.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace bernoulli::formats {

Bsr::Bsr(index_t rows, index_t cols, index_t block,
         std::vector<index_t> browptr, std::vector<index_t> bcolind,
         std::vector<value_t> vals)
    : rows_(rows),
      cols_(cols),
      block_(block),
      browptr_(std::move(browptr)),
      bcolind_(std::move(bcolind)),
      vals_(std::move(vals)) {
  validate();
}

Bsr Bsr::from_coo(const Coo& a, index_t block) {
  BERNOULLI_CHECK(block >= 1);
  BERNOULLI_CHECK_MSG(a.rows() % block == 0 && a.cols() % block == 0,
                      "matrix " << a.rows() << "x" << a.cols()
                                << " not divisible into " << block
                                << "-blocks");
  // Value positions are b*R*C + r*C + c in index_t: the block area must
  // fit before any storage is sized, and the total once blocks are known.
  const long long area = static_cast<long long>(block) * block;
  if (a.nnz() > 0) checked_index(area, "BCSR block area R*C");
  const index_t brows = a.rows() / block;
  const index_t bcols = a.cols() / block;
  const auto bsize = static_cast<std::size_t>(area);
  auto rowind = a.rowind();
  auto colind = a.colind();
  auto avals = a.vals();

  // The canonical COO is row-major, so each block row's entries are one
  // contiguous run; both passes walk the runs in order. slot[bc] is the
  // position block column bc last took; a value below the current block
  // row's first position means bc is not yet in this block row.
  std::vector<index_t> slot(static_cast<std::size_t>(bcols), -1);

  // Pass 1: count the distinct blocks of each block row.
  std::vector<index_t> browptr(static_cast<std::size_t>(brows) + 1, 0);
  {
    index_t k = 0, nblocks = 0;
    for (index_t br = 0; br < brows; ++br) {
      const index_t first = nblocks;
      for (; k < a.nnz() && rowind[k] / block == br; ++k) {
        auto& s = slot[static_cast<std::size_t>(colind[k] / block)];
        if (s < first) s = nblocks++;
      }
      browptr[static_cast<std::size_t>(br) + 1] = nblocks;
    }
  }

  checked_index(static_cast<long long>(browptr.back()) * area,
                "BCSR stored entries b*R*C");
  // Pass 2: list each block row's blocks, sort them, then scatter the
  // run's values into their slots.
  std::vector<index_t> bcolind(static_cast<std::size_t>(browptr.back()));
  std::vector<value_t> vals(bcolind.size() * bsize, 0.0);
  std::fill(slot.begin(), slot.end(), -1);
  for (index_t br = 0, k = 0; br < brows; ++br) {
    const index_t first = browptr[static_cast<std::size_t>(br)];
    const index_t last = browptr[static_cast<std::size_t>(br) + 1];
    const index_t run = k;
    index_t next = first;
    for (; k < a.nnz() && rowind[k] / block == br; ++k) {
      auto& s = slot[static_cast<std::size_t>(colind[k] / block)];
      if (s < first) {
        s = next;
        bcolind[static_cast<std::size_t>(next++)] = colind[k] / block;
      }
    }
    std::sort(bcolind.begin() + first, bcolind.begin() + last);
    for (index_t b = first; b < last; ++b)
      slot[static_cast<std::size_t>(bcolind[static_cast<std::size_t>(b)])] = b;
    for (index_t e = run; e < k; ++e) {
      const auto off =
          static_cast<std::size_t>(
              slot[static_cast<std::size_t>(colind[e] / block)]) *
              bsize +
          static_cast<std::size_t>(rowind[e] % block) *
              static_cast<std::size_t>(block) +
          static_cast<std::size_t>(colind[e] % block);
      vals[off] = avals[static_cast<std::size_t>(e)];
    }
  }
  return Bsr(a.rows(), a.cols(), block, std::move(browptr), std::move(bcolind),
             std::move(vals));
}

Coo Bsr::to_coo() const {
  TripletBuilder b(rows_, cols_);
  const auto bb = static_cast<std::size_t>(block_) *
                  static_cast<std::size_t>(block_);
  for (index_t br = 0; br < block_rows(); ++br) {
    for (index_t s = browptr_[static_cast<std::size_t>(br)];
         s < browptr_[static_cast<std::size_t>(br) + 1]; ++s) {
      const index_t bc = bcolind_[static_cast<std::size_t>(s)];
      const value_t* blk = vals_.data() + static_cast<std::size_t>(s) * bb;
      for (index_t r = 0; r < block_; ++r)
        for (index_t c = 0; c < block_; ++c) {
          value_t v = blk[static_cast<std::size_t>(r * block_ + c)];
          if (v != 0.0) b.add(br * block_ + r, bc * block_ + c, v);
        }
    }
  }
  return std::move(b).build();
}

value_t Bsr::at(index_t i, index_t j) const {
  const index_t br = i / block_, bc = j / block_;
  const index_t* begin = bcolind_.data() + browptr_[static_cast<std::size_t>(br)];
  const index_t* end = bcolind_.data() + browptr_[static_cast<std::size_t>(br) + 1];
  const index_t* it = std::lower_bound(begin, end, bc);
  if (it == end || *it != bc) return 0.0;
  auto slot = static_cast<std::size_t>(it - bcolind_.data());
  return vals_[slot * static_cast<std::size_t>(block_) *
                   static_cast<std::size_t>(block_) +
               static_cast<std::size_t>((i % block_) * block_ + (j % block_))];
}

void Bsr::validate() const {
  BERNOULLI_CHECK(block_ >= 1);
  BERNOULLI_CHECK(rows_ % block_ == 0 && cols_ % block_ == 0);
  BERNOULLI_CHECK(browptr_.size() ==
                  static_cast<std::size_t>(rows_ / block_) + 1);
  BERNOULLI_CHECK(browptr_.front() == 0);
  BERNOULLI_CHECK(browptr_.back() == static_cast<index_t>(bcolind_.size()));
  BERNOULLI_CHECK(vals_.size() == bcolind_.size() *
                                      static_cast<std::size_t>(block_) *
                                      static_cast<std::size_t>(block_));
  for (index_t br = 0; br + 1 < static_cast<index_t>(browptr_.size()); ++br) {
    BERNOULLI_CHECK(browptr_[static_cast<std::size_t>(br)] <=
                    browptr_[static_cast<std::size_t>(br) + 1]);
    for (index_t s = browptr_[static_cast<std::size_t>(br)];
         s < browptr_[static_cast<std::size_t>(br) + 1]; ++s) {
      BERNOULLI_CHECK(bcolind_[static_cast<std::size_t>(s)] >= 0 &&
                      bcolind_[static_cast<std::size_t>(s)] < cols_ / block_);
      if (s > browptr_[static_cast<std::size_t>(br)])
        BERNOULLI_CHECK(bcolind_[static_cast<std::size_t>(s) - 1] <
                        bcolind_[static_cast<std::size_t>(s)]);
    }
  }
}

void spmv(const Bsr& a, ConstVectorView x, VectorView y) {
  BERNOULLI_CHECK(static_cast<index_t>(x.size()) == a.cols());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == a.rows());
  std::fill(y.begin(), y.end(), 0.0);
  spmv_add(a, x, y);
}

void spmv_add(const Bsr& a, ConstVectorView x, VectorView y) {
  const index_t b = a.block();
  const auto bb = static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
  auto browptr = a.browptr();
  auto bcolind = a.bcolind();
  auto vals = a.vals();
  for (index_t br = 0; br < a.block_rows(); ++br) {
    value_t* ys = y.data() + static_cast<std::size_t>(br) *
                                 static_cast<std::size_t>(b);
    for (index_t s = browptr[static_cast<std::size_t>(br)];
         s < browptr[static_cast<std::size_t>(br) + 1]; ++s) {
      const value_t* blk = vals.data() + static_cast<std::size_t>(s) * bb;
      const value_t* xs = x.data() +
                          static_cast<std::size_t>(
                              bcolind[static_cast<std::size_t>(s)]) *
                              static_cast<std::size_t>(b);
      // Dense b x b micro-GEMV: no per-entry index loads inside the block.
      for (index_t r = 0; r < b; ++r) {
        value_t sum = 0.0;
        const value_t* row = blk + static_cast<std::size_t>(r * b);
        for (index_t c = 0; c < b; ++c)
          sum += row[static_cast<std::size_t>(c)] *
                 xs[static_cast<std::size_t>(c)];
        ys[static_cast<std::size_t>(r)] += sum;
      }
    }
  }
}

}  // namespace bernoulli::formats
