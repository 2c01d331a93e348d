// Concrete relation views over the storage formats: the "access method"
// definitions the user supplies per format (paper §2.1). Each view is a
// stack of DescriptorLevels over the format's own arrays and advertises
// honest properties (CSR's row level is dense and O(1)-searchable; its
// column level is sorted and O(log)-searchable; COO's row level is sorted
// but not dense; a dense vector is both).
#pragma once

#include "formats/ccs.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

/// I(v1, ..., vk): the iteration-space relation — a cross product of dense
/// index intervals [0, extent). Carries no value. Position encoding at
/// every level: the index itself.
class IntervalView final : public LevelStackView {
 public:
  IntervalView(std::string name, const std::vector<index_t>& extents);
};

/// X(j, x): a dense vector. Dense, sorted, O(1) search; writable unless
/// constructed over a const view.
class DenseVectorView final : public LevelStackView {
 public:
  DenseVectorView(std::string name, VectorView data);
  DenseVectorView(std::string name, ConstVectorView data);

  bool writable() const override { return writable_; }
  void value_add(index_t pos, value_t delta) override;
  void value_set(index_t pos, value_t v) override;
  std::span<value_t> value_array_mut() override { return mutable_data_; }

 private:
  VectorView mutable_data_;  // empty when constructed read-only
  bool writable_ = false;    // explicit: a zero-length view is still writable
};

/// A(i, j, a) over CSR storage: hierarchy I -> (J, V).
class CsrView final : public LevelStackView {
 public:
  CsrView(std::string name, const formats::Csr& m);
};

/// A(j, i, a) over CCS storage: hierarchy J -> (I, V). Note the hierarchy
/// order: the view binds the COLUMN first.
class CcsView final : public LevelStackView {
 public:
  CcsView(std::string name, const formats::Ccs& m);
};

/// A(i, j, a) over canonical COO storage: the row level enumerates the
/// distinct stored rows (sorted, NOT dense — empty rows are absent), the
/// column level walks the row's run of entries.
class CooView final : public LevelStackView {
 public:
  CooView(std::string name, const formats::Coo& m);

 private:
  // rowptr-like run boundaries over the sorted triplets, built once.
  std::vector<index_t> distinct_rows_;
  std::vector<index_t> runptr_;
};

/// P(i, i'): a permutation stored as PERM/IPERM arrays (paper §2.2). The
/// first level is dense over i; the second holds exactly the single child
/// i' = perm[i]. Thanks to IPERM the view can also be searched "backwards"
/// via the inverse view below.
class PermutationView final : public LevelStackView {
 public:
  /// perm[i] = i'. The inverse is derived internally.
  PermutationView(std::string name, std::vector<index_t> perm);

  std::span<const index_t> perm() const { return perm_; }
  std::span<const index_t> iperm() const { return iperm_; }

 private:
  std::vector<index_t> perm_;
  std::vector<index_t> iperm_;
};

/// A(i, j, a) over a dense matrix: both levels dense, O(1); writable.
class DenseMatrixView final : public LevelStackView {
 public:
  DenseMatrixView(std::string name, formats::Dense& m);

  bool writable() const override { return true; }
  void value_add(index_t pos, value_t delta) override;
  void value_set(index_t pos, value_t v) override;
  std::span<value_t> value_array_mut() override { return m_.data(); }

 private:
  formats::Dense& m_;
};

}  // namespace bernoulli::relation
