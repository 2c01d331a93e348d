// Hash-index access-method adapter: the third join implementation the
// relational framework supports ("scatter" in Bik & Wijshoff's terms,
// hash join in database terms).
//
// Wrapping a level replaces its search method with an O(1) hash lookup
// built once per parent (lazily, cached). The planner, which reasons only
// about LevelProperties, then sees SearchCost::kConstant and prefers
// probing the wrapped relation — demonstrating that join implementations
// are swappable without touching the compiler (paper §2.1).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "relation/view.hpp"

namespace bernoulli::relation {

/// Wraps another view; identical hierarchy, but the level at
/// `indexed_depth` searches through a hash index instead of its native
/// method. The underlying view must outlive the wrapper.
class HashIndexedView final : public RelationView {
 public:
  HashIndexedView(const RelationView& base, index_t indexed_depth);
  ~HashIndexedView() override;  // out-of-line: HashedLevel is incomplete here

  std::string name() const override { return base_.name(); }
  index_t arity() const override { return base_.arity(); }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return base_.has_value(); }
  value_t value_at(index_t pos) const override { return base_.value_at(pos); }
  std::span<const value_t> value_array() const override {
    return base_.value_array();
  }

  /// Number of per-parent hash tables materialized so far (for tests).
  std::size_t tables_built() const;

 private:
  class HashedLevel;
  const RelationView& base_;
  index_t indexed_depth_;
  std::unique_ptr<HashedLevel> hashed_;
};

}  // namespace bernoulli::relation
