// Dense row-major matrix. Serves as the reference semantics for every
// sparse format (the compiler's input program is the dense loop nest), and
// as the storage for the BlockSolve diagonal clique blocks.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace bernoulli::formats {

class Dense {
 public:
  Dense() = default;
  // Positions i*cols + j are index_t, so rows*cols must fit it.
  Dense(index_t rows, index_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(checked_index(
                  static_cast<long long>(rows) * cols, "dense rows*cols")),
              0.0) {}

  static Dense from_coo(const Coo& a);
  Coo to_coo(value_t drop_tol = 0.0) const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  value_t& at(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }
  value_t at(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }

  std::span<const value_t> data() const { return data_; }
  std::span<value_t> data() { return data_; }

  /// Contiguous row i.
  std::span<const value_t> row(index_t i) const {
    return {data_.data() +
                static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_),
            static_cast<std::size_t>(cols_)};
  }

  friend bool operator==(const Dense&, const Dense&) = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<value_t> data_;
};

/// y = A * x (dense GEMV; reference for all sparse kernels).
void spmv(const Dense& a, ConstVectorView x, VectorView y);
void spmv_add(const Dense& a, ConstVectorView x, VectorView y);

}  // namespace bernoulli::formats
