// Level-kind lowering: LevelDescriptor -> Cursor / SearchSpec,
// and the DescriptorLevel access methods built on the same cursor.
//
// Every flat storage shape the engine ladder understands is lowered HERE,
// once, from the descriptor a level returns via IndexLevel::describe().
// The built-in views and the format-spec DSL levels are all
// DescriptorLevels, so a new format is one descriptor — the interpreter's
// access methods, the cursor protocol, the probe lowering and the
// specializer all follow mechanically.
#include <algorithm>
#include <string>

#include "relation/cursor.hpp"
#include "relation/view.hpp"
#include "support/error.hpp"

namespace bernoulli::relation {

void descriptor_cursor(const LevelDescriptor& d, index_t parent, Cursor& c) {
  using K = LevelDescriptor::Kind;
  c = Cursor{};
  switch (d.kind) {
    case K::kDense:
      c.kind = Cursor::Kind::kDenseRange;
      c.base = parent * d.stride;
      c.end = d.extent;
      return;
    case K::kCompressed:
      c.kind = Cursor::Kind::kIndArray;
      c.ind = d.ind;
      c.cur = d.ptr[static_cast<std::size_t>(parent)];
      c.end = d.ptr[static_cast<std::size_t>(parent) + 1];
      return;
    case K::kList:
      c.kind = Cursor::Kind::kIndArray;
      c.ind = d.ind;
      c.end = d.ind_len;
      return;
    case K::kSingleton:
      c.kind = Cursor::Kind::kSingleton;
      c.end = 1;
      c.s_idx = d.map[static_cast<std::size_t>(parent)];
      c.s_pos = parent;
      return;
    case K::kStrided:
      c.kind = Cursor::Kind::kStrided;
      c.ind = d.ind;
      c.base = parent;
      c.stride = d.stride;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kOffsets:
      c.kind = Cursor::Kind::kOffsets;
      c.ind = d.ind;
      c.off = d.off;
      c.base = parent;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kBlocked: {
      const index_t br = parent / d.block_r;
      c.kind = Cursor::Kind::kBlocked;
      c.ind = d.ind;
      c.base = d.ptr[static_cast<std::size_t>(br)];
      c.stride = d.block_c;
      c.bsz = d.block_r * d.block_c;
      c.rofs = (parent % d.block_r) * d.block_c;
      c.end = (d.ptr[static_cast<std::size_t>(br) + 1] - c.base) * d.block_c;
      return;
    }
    case K::kSliced:
      // SELL-C-sigma needs no cursor kind of its own: within one row the
      // entries sit at base + k*C, which is exactly the strided walk.
      c.kind = Cursor::Kind::kStrided;
      c.ind = d.ind;
      c.base = d.off[static_cast<std::size_t>(parent)];
      c.stride = d.chunk;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kOpaque: break;
  }
  BERNOULLI_CHECK_MSG(false, "descriptor_cursor on an opaque level");
}

SearchSpec descriptor_search(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  SearchSpec s;
  switch (d.kind) {
    case K::kDense:
      s.kind = d.stride == 0 ? SearchSpec::Kind::kIdentity
                             : SearchSpec::Kind::kAffine;
      s.extent = d.extent;
      s.stride = d.stride;
      return s;
    case K::kCompressed:
      if (!d.sorted) return s;  // unsorted segments: linear virtual scan
      s.kind = SearchSpec::Kind::kSegmentBinary;
      s.ptr = d.ptr;
      s.ind = d.ind;
      return s;
    case K::kList:
      if (!d.sorted) return s;
      s.kind = SearchSpec::Kind::kListBinary;
      s.ind = d.ind;
      s.extent = d.ind_len;
      return s;
    case K::kSingleton:
      s.kind = SearchSpec::Kind::kFunction;
      s.map = d.map;
      return s;
    // Lane/diagonal/block-major layouts search through the level's own
    // virtual method; in practice they only ever drive.
    case K::kStrided:
    case K::kOffsets:
    case K::kBlocked:
    case K::kSliced:
    case K::kOpaque: return s;
  }
  return s;
}

std::string descriptor_text(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  switch (d.kind) {
    case K::kOpaque: return "opaque";
    case K::kDense: return "dense " + std::to_string(d.extent);
    case K::kCompressed: return "compressed";
    case K::kList: return "list " + std::to_string(d.ind_len);
    case K::kSingleton: return "singleton";
    case K::kStrided: return "strided lanes=" + std::to_string(d.stride);
    case K::kOffsets: return "offsets";
    case K::kBlocked:
      return "blocked " + std::to_string(d.block_r) + "x" +
             std::to_string(d.block_c);
    case K::kSliced:
      return "sliced C=" + std::to_string(d.chunk) + " sigma=" +
             std::to_string(d.sigma);
  }
  return "?";
}

// ------------------------------------------------------- level builders

namespace {
index_t span_len(std::span<const index_t> a) {
  return static_cast<index_t>(a.size());
}
}  // namespace

LevelDescriptor dense_level(index_t extent, index_t stride) {
  LevelDescriptor d;
  d.kind = LevelDescriptor::Kind::kDense;
  d.extent = extent;
  d.stride = stride;
  return d;
}

LevelDescriptor compressed_level(std::span<const index_t> ptr,
                                 std::span<const index_t> ind, bool sorted) {
  LevelDescriptor d;
  d.kind = LevelDescriptor::Kind::kCompressed;
  d.sorted = sorted;
  d.ptr = ptr.data();
  d.ptr_len = span_len(ptr);
  d.ind = ind.data();
  d.ind_len = span_len(ind);
  return d;
}

LevelDescriptor list_level(std::span<const index_t> ind, bool sorted) {
  LevelDescriptor d;
  d.kind = LevelDescriptor::Kind::kList;
  d.sorted = sorted;
  d.ind = ind.data();
  d.ind_len = span_len(ind);
  return d;
}

LevelDescriptor singleton_level(std::span<const index_t> map) {
  LevelDescriptor d;
  d.kind = LevelDescriptor::Kind::kSingleton;
  d.map = map.data();
  d.map_len = span_len(map);
  return d;
}

// ---------------------------------------------------------- DescriptorLevel

namespace {

// Position of `key` in the sorted ind[lo, hi), or -1.
index_t sorted_find(const index_t* ind, index_t lo, index_t hi, index_t key) {
  const index_t* it = std::lower_bound(ind + lo, ind + hi, key);
  return it != ind + hi && *it == key ? static_cast<index_t>(it - ind) : -1;
}

double average_children(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  switch (d.kind) {
    case K::kDense: return static_cast<double>(d.extent);
    case K::kList: return static_cast<double>(d.ind_len);
    case K::kSingleton: return 1.0;
    case K::kCompressed:
    case K::kBlocked: {
      if (d.ptr_len <= 1) return 0.0;
      const double lanes = d.kind == K::kBlocked ? d.block_c : 1;
      return static_cast<double>(d.ind_len) * lanes /
             static_cast<double>(d.ptr_len - 1);
    }
    case K::kStrided:
    case K::kOffsets:
    case K::kSliced: {
      long long total = 0;
      for (index_t k = 0; k < d.len_len; ++k) total += d.len[k];
      return d.len_len > 0 ? static_cast<double>(total) /
                                 static_cast<double>(d.len_len)
                           : 0.0;
    }
    case K::kOpaque: break;
  }
  return 0.0;
}

}  // namespace

DescriptorLevel::DescriptorLevel(const LevelDescriptor& d)
    : d_(d), expected_(average_children(d)) {
  BERNOULLI_CHECK_MSG(d.kind != LevelDescriptor::Kind::kOpaque,
                      "a DescriptorLevel needs a flat storage shape");
}

LevelProperties DescriptorLevel::properties() const {
  using K = LevelDescriptor::Kind;
  switch (d_.kind) {
    case K::kDense: return {true, true, SearchCost::kConstant};
    // A single child is trivially sorted; search is a comparison.
    case K::kSingleton: return {true, false, SearchCost::kConstant};
    case K::kCompressed:
    case K::kList:
    case K::kBlocked:
      return {d_.sorted, false,
              d_.sorted ? SearchCost::kLog : SearchCost::kLinear};
    // Lane-, diagonal- and slice-major rows scan: their entries are not
    // contiguous, so search walks the row.
    case K::kStrided:
    case K::kOffsets:
    case K::kSliced:
    case K::kOpaque: break;
  }
  return {d_.sorted, false, SearchCost::kLinear};
}

void DescriptorLevel::enumerate(index_t parent, const EnumFn& fn) const {
  Cursor c;
  descriptor_cursor(d_, parent, c);
  for (; c.valid(); c.advance())
    if (!fn(c.index(), c.pos())) return;
}

index_t DescriptorLevel::search(index_t parent, index_t index) const {
  using K = LevelDescriptor::Kind;
  const auto p = static_cast<std::size_t>(parent);
  switch (d_.kind) {
    case K::kDense:
      return index >= 0 && index < d_.extent ? parent * d_.stride + index
                                             : -1;
    case K::kSingleton: return d_.map[p] == index ? parent : -1;
    case K::kCompressed:
      if (d_.sorted)
        return sorted_find(d_.ind, d_.ptr[p], d_.ptr[p + 1], index);
      break;
    case K::kList:
      if (d_.sorted) return sorted_find(d_.ind, 0, d_.ind_len, index);
      break;
    case K::kBlocked:
      if (d_.sorted) {
        if (index < 0) return -1;
        const auto br = static_cast<std::size_t>(parent / d_.block_r);
        const index_t b = sorted_find(d_.ind, d_.ptr[br], d_.ptr[br + 1],
                                      index / d_.block_c);
        if (b < 0) return -1;
        return b * d_.block_r * d_.block_c +
               (parent % d_.block_r) * d_.block_c + index % d_.block_c;
      }
      break;
    case K::kStrided:
    case K::kOffsets:
    case K::kSliced:
    case K::kOpaque: break;
  }
  // Linear kinds: the first enumerated child carrying the index.
  Cursor c;
  descriptor_cursor(d_, parent, c);
  for (; c.valid(); c.advance())
    if (c.index() == index) return c.pos();
  return -1;
}

}  // namespace bernoulli::relation
