#include "relation/spa_view.hpp"

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::relation {

class SpaColLevel final : public IndexLevel {
 public:
  explicit SpaColLevel(SpaView& owner) : owner_(owner) {}

  LevelProperties properties() const override {
    // Hash storage: O(1) search, unsorted enumeration.
    return {false, false, SearchCost::kConstant};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    for (const auto& [j, slot] :
         owner_.row_slots_[static_cast<std::size_t>(parent)])
      if (!fn(j, slot)) return;
  }

  index_t search(index_t parent, index_t index) const override {
    const auto& row = owner_.row_slots_[static_cast<std::size_t>(parent)];
    auto it = row.find(index);
    return it == row.end() ? -1 : it->second;
  }

  bool insertable() const override { return true; }

  index_t insert(index_t parent, index_t index) override {
    static support::Counter& inserts =
        support::counter("relation.spa.inserts");
    inserts.add();
    BERNOULLI_CHECK(index >= 0 && index < owner_.cols_);
    auto slot = static_cast<index_t>(owner_.vals_.size());
    owner_.vals_.push_back(0.0);
    owner_.slot_row_.push_back(parent);
    owner_.slot_col_.push_back(index);
    owner_.row_slots_[static_cast<std::size_t>(parent)].emplace(index, slot);
    return slot;
  }

  double expected_size() const override {
    return owner_.rows_ > 0
               ? static_cast<double>(owner_.vals_.size()) / owner_.rows_
               : 0.0;
  }

 private:
  SpaView& owner_;
};

SpaView::SpaView(std::string name, index_t rows, index_t cols)
    : name_(std::move(name)),
      rows_(rows),
      cols_(cols),
      rows_level_(dense_level(rows)) {
  BERNOULLI_CHECK(rows >= 0 && cols >= 0);
  row_slots_.resize(static_cast<std::size_t>(rows));
  cols_level_ = std::make_unique<SpaColLevel>(*this);
}

SpaView::~SpaView() = default;

const IndexLevel& SpaView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  if (depth == 0) return rows_level_;
  return *cols_level_;
}

value_t SpaView::value_at(index_t pos) const {
  return vals_[static_cast<std::size_t>(pos)];
}

void SpaView::value_add(index_t pos, value_t delta) {
  vals_[static_cast<std::size_t>(pos)] += delta;
}

void SpaView::value_set(index_t pos, value_t v) {
  vals_[static_cast<std::size_t>(pos)] = v;
}

formats::Coo SpaView::harvest() const {
  std::vector<Triplet> entries;
  entries.reserve(vals_.size());
  for (std::size_t k = 0; k < vals_.size(); ++k)
    entries.push_back({slot_row_[k], slot_col_[k], vals_[k]});
  return formats::Coo(rows_, cols_, std::move(entries));
}

void SpaView::clear() {
  for (auto& row : row_slots_) row.clear();
  vals_.clear();
  slot_row_.clear();
  slot_col_.clear();
}

}  // namespace bernoulli::relation
