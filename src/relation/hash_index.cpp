#include "relation/hash_index.hpp"

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::relation {

class HashIndexedView::HashedLevel final : public IndexLevel {
 public:
  explicit HashedLevel(const IndexLevel& base) : base_(base) {}

  LevelProperties properties() const override {
    LevelProperties p = base_.properties();
    p.search_cost = SearchCost::kConstant;
    return p;
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    base_.enumerate(parent, fn);
  }

  index_t search(index_t parent, index_t index) const override {
    static support::Counter& probes =
        support::counter("relation.hash_index.probes");
    probes.add();
    const auto& table = table_for(parent);
    auto it = table.find(index);
    return it == table.end() ? -1 : it->second;
  }

  double expected_size() const override { return base_.expected_size(); }

  std::size_t tables_built() const { return tables_.size(); }

 private:
  const std::unordered_map<index_t, index_t>& table_for(index_t parent) const {
    auto it = tables_.find(parent);
    if (it == tables_.end()) {
      static support::Counter& built =
          support::counter("relation.hash_index.tables_built");
      built.add();
      std::unordered_map<index_t, index_t> table;
      base_.enumerate(parent, [&](index_t idx, index_t pos) {
        table.emplace(idx, pos);
        return true;
      });
      it = tables_.emplace(parent, std::move(table)).first;
    }
    return it->second;
  }

  const IndexLevel& base_;
  // Lazily built, cached per parent. Mutable: building an index is a pure
  // optimization invisible through the interface.
  mutable std::unordered_map<index_t, std::unordered_map<index_t, index_t>>
      tables_;
};

HashIndexedView::~HashIndexedView() = default;

HashIndexedView::HashIndexedView(const RelationView& base,
                                 index_t indexed_depth)
    : base_(base), indexed_depth_(indexed_depth) {
  BERNOULLI_CHECK(indexed_depth >= 0 && indexed_depth < base.arity());
  hashed_ = std::make_unique<HashedLevel>(base.level(indexed_depth));
}

const IndexLevel& HashIndexedView::level(index_t depth) const {
  if (depth == indexed_depth_) return *hashed_;
  return base_.level(depth);
}

std::size_t HashIndexedView::tables_built() const {
  return hashed_->tables_built();
}

}  // namespace bernoulli::relation
