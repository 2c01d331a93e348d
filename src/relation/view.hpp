// Relations as hierarchical views of array storage (paper §2.1).
//
// A sparse format is described to the compiler by its *access methods*:
// each level of the index hierarchy (e.g. CCS is J -> (I, V)) provides an
// enumeration method and a search method, plus properties (sortedness,
// search cost, denseness) that the planner uses to choose join orders and
// join implementations. The compiler never sees COLP/ROWIND/VALS — only
// these methods — which is what makes the format set extensible.
//
// A level states its storage shape once, as a LevelDescriptor
// (relation/cursor.hpp). DescriptorLevel derives every access method from
// that record — properties, enumeration, search and the planner's size
// estimate — and the linked engine and the specializing C emitter lower
// the same record, so the engines cannot disagree about a level. Every
// built-in view is a LevelStackView of DescriptorLevels over borrowed
// arrays; only stateful levels (SPA's insert-on-miss columns, the hash
// index) implement IndexLevel by hand.
//
// Runtime protocol: a *position* is an opaque index_t cursor into a level
// (e.g. an offset into VALS). Level d enumerates/searches children of a
// parent position from level d-1 (the root parent position is 0). The
// position at the deepest level addresses the value.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "relation/cursor.hpp"
#include "support/types.hpp"

namespace bernoulli::relation {

/// Cost class of a level's search method, coarsened the way a query
/// optimizer consumes it.
enum class SearchCost {
  kConstant,  // O(1): dense offsets, hash indexes
  kLog,       // O(log n): binary search in a sorted segment
  kLinear,    // O(n): scan
};

struct LevelProperties {
  bool sorted = false;  // enumeration yields ascending indices
  bool dense = false;   // enumeration covers every index of a contiguous range
  SearchCost search_cost = SearchCost::kLinear;
};

/// Visit callback for enumeration: (index value, child position); return
/// false to stop early.
using EnumFn = std::function<bool(index_t index, index_t pos)>;

class IndexLevel {
 public:
  virtual ~IndexLevel() = default;

  virtual LevelProperties properties() const = 0;

  /// Enumerates the (index, position) pairs under `parent`.
  virtual void enumerate(index_t parent, const EnumFn& fn) const = 0;

  /// Position of child with the given index under `parent`, or -1.
  virtual index_t search(index_t parent, index_t index) const = 0;

  /// For insertable levels (sparse accumulators): creates the child and
  /// returns its position. Executors call this when a WRITTEN relation's
  /// probe misses — the fill-in case of sparse outputs. Default: levels
  /// are not insertable.
  virtual bool insertable() const { return false; }
  virtual index_t insert(index_t parent, index_t index);

  /// Estimated number of children of one parent (planner cardinality).
  virtual double expected_size() const = 0;

  // --- Linked-executor hooks (relation/cursor.hpp) -------------------
  // A level declares its storage shape ONCE via describe(); the cursor
  // and search lowerings derive from that descriptor in
  // relation/descriptor.cpp and the C emitter switches on its kind, so a
  // new format is one describe() — not a cursor backend, a search lowering
  // and an emitter case by hand.
  // kOpaque (the default) keeps the fully-virtual fallbacks: cursors
  // materialize enumerate() into a buffer, probes go through search().

  /// Flat storage descriptor, valid for every parent. Default: kOpaque
  /// (no flat shape — stateful or growable storage).
  virtual LevelDescriptor describe() const { return {}; }

  /// Fills `c` with a cursor over the children of `parent`, derived from
  /// describe(). For kOpaque levels the adapter materializes enumerate()
  /// into `scratch` (cleared first) and returns a kBuffered cursor over
  /// it; `scratch` must outlive the cursor's use and is untouched on the
  /// descriptor path.
  void begin_cursor(index_t parent, Cursor& c, CursorBuffer& scratch) const;

  /// Flat search descriptor derived from describe(). kVirtual (probe
  /// through IndexLevel::search) for kOpaque and drive-only shapes.
  SearchSpec search_spec() const { return descriptor_search(describe()); }
};

/// The one IndexLevel for every flat storage shape: all access methods
/// follow from the descriptor's kind. Enumeration walks descriptor_cursor
/// (the linked engine's cursor); search is O(1) for dense and singleton
/// levels, binary for sorted compressed, list and blocked levels, and a
/// linear walk of the cursor otherwise. The descriptor's arrays are
/// borrowed and must outlive the level.
class DescriptorLevel final : public IndexLevel {
 public:
  /// `d` must not be kOpaque.
  explicit DescriptorLevel(const LevelDescriptor& d);

  LevelProperties properties() const override;
  void enumerate(index_t parent, const EnumFn& fn) const override;
  index_t search(index_t parent, index_t index) const override;

  /// Average children per parent: the extent of a dense or list level, 1
  /// for a singleton, |ind|/(|ptr|-1) for a compressed level (times the
  /// block width for a blocked one) and sum(len)/|len| for the strided,
  /// offsets and sliced levels (their ind arrays may hold padding).
  double expected_size() const override { return expected_; }

  LevelDescriptor describe() const override { return d_; }

 private:
  LevelDescriptor d_;
  double expected_;
};

/// Descriptors of the common level shapes, over borrowed arrays.
/// dense_level: [0, extent) at positions parent*stride + index (stride 0:
/// position == index). compressed_level: the children of parent p are
/// ind[ptr[p] .. ptr[p+1]) at positions equal to the offsets. list_level:
/// child k of the root is ind[k] at position k. singleton_level: the one
/// child of parent p is map[p] at position p.
LevelDescriptor dense_level(index_t extent, index_t stride = 0);
LevelDescriptor compressed_level(std::span<const index_t> ptr,
                                 std::span<const index_t> ind,
                                 bool sorted = true);
LevelDescriptor list_level(std::span<const index_t> ind, bool sorted = true);
LevelDescriptor singleton_level(std::span<const index_t> map);

/// A relation R(v1, ..., vk [, value]) viewed through its access-method
/// hierarchy. Levels are numbered outermost-first; level d binds index
/// field d of the hierarchy.
class RelationView {
 public:
  virtual ~RelationView() = default;

  virtual std::string name() const = 0;

  /// Number of index fields (hierarchy depth).
  virtual index_t arity() const = 0;

  virtual const IndexLevel& level(index_t depth) const = 0;

  /// Whether the relation carries a value field (sparse matrices and
  /// vectors do; the iteration-space relation I(i,j) does not).
  virtual bool has_value() const { return false; }

  /// Value addressed by the deepest-level position.
  virtual value_t value_at(index_t leaf_pos) const;

  /// Mutable value access for output relations; default: not writable.
  virtual bool writable() const { return false; }
  virtual void value_add(index_t leaf_pos, value_t delta);
  virtual void value_set(index_t leaf_pos, value_t v);

  /// Raw value storage addressed by leaf positions, when the format keeps
  /// values in one flat array whose address is stable across a run (the
  /// linked executor's fast path — one load instead of a virtual call per
  /// tuple). Empty span: no stable flat array; use value_at/value_add.
  /// Views whose storage can grow mid-run (sparse accumulators) must NOT
  /// expose a raw array.
  virtual std::span<const value_t> value_array() const { return {}; }
  virtual std::span<value_t> value_array_mut() { return {}; }
};

/// A relation whose levels are all DescriptorLevels, optionally carrying
/// one flat value array addressed by leaf positions. The arrays are
/// borrowed (from the format object or from the subclass's own members);
/// the built-in views are this class plus a constructor, and the writable
/// ones (dense vectors and matrices) add the value_add/value_set hooks.
/// Not copyable: a copy's levels would still point into the source's
/// members.
class LevelStackView : public RelationView {
 public:
  LevelStackView(const LevelStackView&) = delete;
  LevelStackView& operator=(const LevelStackView&) = delete;

  std::string name() const override { return name_; }
  index_t arity() const override {
    return static_cast<index_t>(levels_.size());
  }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return has_value_; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override { return values_; }

 protected:
  explicit LevelStackView(std::string name) : name_(std::move(name)) {}
  void add_level(const LevelDescriptor& d) { levels_.emplace_back(d); }
  void set_values(std::span<const value_t> values) {
    values_ = values;
    has_value_ = true;
  }

 private:
  std::string name_;
  std::vector<DescriptorLevel> levels_;
  std::span<const value_t> values_;
  bool has_value_ = false;
};

}  // namespace bernoulli::relation
