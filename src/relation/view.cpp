#include "relation/view.hpp"

#include "support/error.hpp"

namespace bernoulli::relation {

index_t IndexLevel::insert(index_t, index_t) {
  BERNOULLI_CHECK_MSG(false, "this access method does not support insertion");
  __builtin_unreachable();
}

void IndexLevel::begin_cursor(index_t parent, Cursor& c,
                              CursorBuffer& scratch) const {
  const LevelDescriptor d = describe();
  if (d.kind != LevelDescriptor::Kind::kOpaque) {
    descriptor_cursor(d, parent, c);
    return;
  }
  scratch.clear();
  enumerate(parent, [&](index_t idx, index_t pos) {
    scratch.push_back({idx, pos});
    return true;
  });
  c = Cursor{};
  c.kind = Cursor::Kind::kBuffered;
  c.buf = scratch.data();
  c.cur = 0;
  c.end = static_cast<index_t>(scratch.size());
}

value_t RelationView::value_at(index_t) const {
  BERNOULLI_CHECK_MSG(false, "relation " << name() << " has no value field");
  __builtin_unreachable();
}

void RelationView::value_add(index_t, value_t) {
  BERNOULLI_CHECK_MSG(false, "relation " << name() << " is not writable");
}

void RelationView::value_set(index_t, value_t) {
  BERNOULLI_CHECK_MSG(false, "relation " << name() << " is not writable");
}

const IndexLevel& LevelStackView::level(index_t depth) const {
  BERNOULLI_CHECK(depth >= 0 && depth < arity());
  return levels_[static_cast<std::size_t>(depth)];
}

value_t LevelStackView::value_at(index_t pos) const {
  if (!has_value_) return RelationView::value_at(pos);  // throws
  return values_[static_cast<std::size_t>(pos)];
}

}  // namespace bernoulli::relation
