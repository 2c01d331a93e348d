// Coordinate (COO) sparse format.
//
// The paper's "Coordinate" format: three parallel arrays ROWIND, COLIND,
// VALS holding one entry per stored non-zero. COO doubles as the exchange
// format between all other formats: every format can be built
// from / lowered to a canonical (row-major sorted, duplicate-free) Coo.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace bernoulli::formats {

class Coo {
 public:
  Coo() = default;

  /// Builds a canonical COO matrix. Entries may arrive in any order and may
  /// contain duplicates; duplicates are summed (the usual FEM assembly
  /// convention). Explicit zeros are kept — a stored zero is still a stored
  /// entry in every format of the paper.
  Coo(index_t rows, index_t cols, std::vector<Triplet> entries);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(vals_.size()); }

  std::span<const index_t> rowind() const { return rowind_; }
  std::span<const index_t> colind() const { return colind_; }
  std::span<const value_t> vals() const { return vals_; }
  std::span<value_t> vals() { return vals_; }

  /// Value at (i, j); 0 for entries that are not stored. O(log nnz).
  value_t at(index_t i, index_t j) const;

  /// True when (i, j) is a stored entry (even if its value is 0.0).
  bool stored(index_t i, index_t j) const;

  /// Entry list as triplets, in canonical (row, col) order.
  std::vector<Triplet> triplets() const;

  /// Number of stored entries in row i. O(log nnz).
  index_t row_nnz(index_t i) const;

  /// Lengths of all rows.
  std::vector<index_t> row_lengths() const;

  /// Structural transpose (values carried along).
  Coo transposed() const;

  /// True when the matrix equals its transpose, both structurally and in
  /// values (within `tol`).
  bool is_symmetric(value_t tol = 0.0) const;

  /// Throws bernoulli::Error when the canonical-form invariants are broken.
  void validate() const;

  friend bool operator==(const Coo& a, const Coo& b);

 private:
  friend class Csr;  // Csr::from_coo(Coo&&) takes over the entry arrays

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> rowind_;
  std::vector<index_t> colind_;
  std::vector<value_t> vals_;
};

/// Incremental triplet accumulator; the natural API for matrix assembly.
class TripletBuilder {
 public:
  TripletBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {}

  void add(index_t i, index_t j, value_t v) { entries_.push_back({i, j, v}); }

  /// Reserve space for n more entries.
  void reserve(std::size_t n) { entries_.reserve(entries_.size() + n); }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t size() const { return entries_.size(); }

  /// Consumes the accumulated entries and produces a canonical Coo.
  Coo build() &&;

 private:
  index_t rows_;
  index_t cols_;
  std::vector<Triplet> entries_;
};

/// y = A * x  (reference COO kernel; what the compiler emits for COO).
void spmv(const Coo& a, ConstVectorView x, VectorView y);

/// y += A * x
void spmv_add(const Coo& a, ConstVectorView x, VectorView y);

}  // namespace bernoulli::formats
