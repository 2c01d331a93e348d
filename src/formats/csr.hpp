// Compressed Row Storage (CRS in the paper's Table 1).
//
// The transpose view of CCS: ROWPTR(i) .. ROWPTR(i+1)-1 index the stored
// entries of row i in COLIND/VALS, with column indices sorted inside each
// row. Access-method hierarchy (paper §2.1): I -> (J, V), where I is a
// dense interval with O(1) search and (J, V) is a sorted enumerable
// sequence with O(log) search.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "support/types.hpp"

namespace bernoulli::formats {

class Csr {
 public:
  Csr() = default;
  Csr(index_t rows, index_t cols, std::vector<index_t> rowptr,
      std::vector<index_t> colind, std::vector<value_t> vals);

  static Csr from_coo(const Coo& a);
  /// Takes over `a`'s column and value arrays and builds only the row
  /// pointers; `a` is left a valid empty matrix of its shape.
  static Csr from_coo(Coo&& a);
  Coo to_coo() const;

  /// The three arrays, moved out; the matrix is left empty (0 x 0).
  struct Arrays {
    std::vector<index_t> rowptr;
    std::vector<index_t> colind;
    std::vector<value_t> vals;
  };
  Arrays release() &&;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(vals_.size()); }

  std::span<const index_t> rowptr() const { return rowptr_; }
  std::span<const index_t> colind() const { return colind_; }
  std::span<const value_t> vals() const { return vals_; }
  std::span<value_t> vals() { return vals_; }

  /// Column indices of row i.
  std::span<const index_t> row_cols(index_t i) const {
    return {colind_.data() + rowptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1] -
                                     rowptr_[static_cast<std::size_t>(i)])};
  }

  /// Values of row i.
  std::span<const value_t> row_vals(index_t i) const {
    return {vals_.data() + rowptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1] -
                                     rowptr_[static_cast<std::size_t>(i)])};
  }

  /// Value at (i, j); 0 when not stored. O(log row length).
  value_t at(index_t i, index_t j) const;

  void validate() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> rowptr_;  // size rows+1
  std::vector<index_t> colind_;  // size nnz, sorted within each row
  std::vector<value_t> vals_;    // size nnz
};

/// y = A * x — the kernel the Bernoulli compiler generates for
/// (dense i-loop) x (CRS row enumeration).
void spmv(const Csr& a, ConstVectorView x, VectorView y);
void spmv_add(const Csr& a, ConstVectorView x, VectorView y);

}  // namespace bernoulli::formats
