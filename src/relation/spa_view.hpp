// Sparse accumulator (SPA) output view: a WRITABLE, INSERTABLE relation
// C(i, j, c) for computations whose result is itself sparse — the fill-in
// case ("expand/scatter" in Bik & Wijshoff's framework). The executor
// probes C at (i, j); on a miss the slot is created on the fly, so
//   DO i / DO k / DO j:  C(i,j) += A(i,k) * B(k,j)
// with sparse A, B and SPA C computes a sparse product whose structure is
// discovered during execution. harvest() extracts the accumulated result
// as a canonical COO matrix.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "formats/coo.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class SpaView final : public RelationView {
 public:
  SpaView(std::string name, index_t rows, index_t cols);
  ~SpaView() override;

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  bool writable() const override { return true; }
  void value_add(index_t pos, value_t delta) override;
  void value_set(index_t pos, value_t v) override;

  /// Stored (inserted) entries so far.
  index_t nnz() const { return static_cast<index_t>(vals_.size()); }

  /// The accumulated matrix, canonicalized. Entries whose value is exactly
  /// 0.0 are kept — the structure is the join of the input structures.
  formats::Coo harvest() const;

  /// Drops all entries (reuse across runs).
  void clear();

 private:
  friend class SpaColLevel;
  std::string name_;
  index_t rows_ = 0;
  index_t cols_ = 0;
  // Per-row hash of column -> slot; values and (row, col) per slot.
  std::vector<std::unordered_map<index_t, index_t>> row_slots_;
  std::vector<value_t> vals_;
  std::vector<index_t> slot_row_;
  std::vector<index_t> slot_col_;
  DescriptorLevel rows_level_;
  std::unique_ptr<IndexLevel> cols_level_;
};

}  // namespace bernoulli::relation
