// Flat cursors: the linked executor's view of an access method.
//
// The interpreter (compiler/executor.cpp) drives enumeration through the
// push-style EnumFn callback — one std::function invocation plus one
// virtual `enumerate` dispatch per element. The linked executor
// (compiler/exec_linked.cpp) instead asks a level ONCE per invocation to
// describe the iteration as a flat Cursor — a tagged record of raw array
// pointers and an affine position rule — and then pulls elements with the
// begin/valid/advance/index/pos protocol below. All per-element work is a
// switch on a small enum over plain loads: no virtual calls, no
// std::function, no allocation inside the data loop.
//
// Formats whose iteration is not one of the flat shapes fall back to the
// default adapter in view.cpp, which materializes `enumerate` into a
// caller-owned buffer once per invocation and iterates that (kBuffered).
//
// SearchSpec is the same idea for the probe side: a flat description of a
// level's search method, valid for every parent, resolved once at link
// time. kVirtual falls back to IndexLevel::search per probe.
#pragma once

#include <string>
#include <vector>

#include "support/types.hpp"

namespace bernoulli::relation {

/// One materialized (index value, child position) pair — the element type
/// of buffered cursors and merge-join segments.
struct IndexPos {
  index_t idx = 0;
  index_t pos = 0;
};

/// Scratch storage a buffered cursor materializes into. Owned by the
/// caller (the executor keeps one per plan level per driver, reused across
/// invocations, so steady-state runs allocate nothing).
using CursorBuffer = std::vector<IndexPos>;

struct Cursor {
  enum class Kind : unsigned char {
    kDenseRange,  // idx = cur,           pos = base + cur
    kIndArray,    // idx = ind[cur],      pos = cur
    kStrided,     // pos = base + cur*stride,  idx = ind[pos]
    kOffsets,     // pos = off[cur] + base,    idx = ind[pos]
    kSingleton,   // the single pair (s_idx, s_pos)
    kBlocked,     // BCSR scalar walk: block b = base + cur/stride holds
                  // lane cc = cur%stride; idx = ind[b]*stride + cc,
                  // pos = b*bsz + rofs + cc (rofs = row-in-block * cols)
    kBuffered,    // idx = buf[cur].idx,  pos = buf[cur].pos
  };

  Kind kind = Kind::kBuffered;
  index_t cur = 0;  // iteration counter, [cur, end)
  index_t end = 0;
  index_t base = 0;
  index_t stride = 1;
  const index_t* ind = nullptr;   // kIndArray / kStrided / kOffsets / kBlocked
  const index_t* off = nullptr;   // kOffsets
  const IndexPos* buf = nullptr;  // kBuffered
  index_t s_idx = 0;              // kSingleton
  index_t s_pos = 0;
  index_t rofs = 0;               // kBlocked: (parent % r) * c
  index_t bsz = 0;                // kBlocked: r * c values per block

  bool valid() const { return cur < end; }
  void advance() { ++cur; }

  /// Elements left, counting the current one (exact for every kind — all
  /// cursors know their extent up front).
  index_t remaining() const { return end - cur; }

  index_t index() const {
    switch (kind) {
      case Kind::kDenseRange: return cur;
      case Kind::kIndArray: return ind[cur];
      case Kind::kStrided: return ind[base + cur * stride];
      case Kind::kOffsets: return ind[off[cur] + base];
      case Kind::kSingleton: return s_idx;
      case Kind::kBlocked:
        return ind[base + cur / stride] * stride + cur % stride;
      case Kind::kBuffered: return buf[cur].idx;
    }
    return -1;
  }

  index_t pos() const {
    switch (kind) {
      case Kind::kDenseRange: return base + cur;
      case Kind::kIndArray: return cur;
      case Kind::kStrided: return base + cur * stride;
      case Kind::kOffsets: return off[cur] + base;
      case Kind::kSingleton: return s_pos;
      case Kind::kBlocked:
        return (base + cur / stride) * bsz + rofs + cur % stride;
      case Kind::kBuffered: return buf[cur].pos;
    }
    return -1;
  }
};

/// Flat description of a level's search method, independent of the parent
/// position (the arrays backing a level are fixed; only the segment bounds
/// move with the parent). Lowered once per probe at link time.
struct SearchSpec {
  enum class Kind : unsigned char {
    kVirtual,        // fall back to IndexLevel::search
    kIdentity,       // pos = idx                for 0 <= idx < extent
    kAffine,         // pos = parent*stride+idx  for 0 <= idx < extent
    kSegmentBinary,  // binary search ind[ptr[parent] .. ptr[parent+1])
    kListBinary,     // binary search ind[0 .. extent)
    kFunction,       // pos = parent when map[parent] == idx
  };

  Kind kind = Kind::kVirtual;
  index_t extent = 0;             // kIdentity / kAffine / kListBinary
  index_t stride = 0;             // kAffine
  const index_t* ptr = nullptr;   // kSegmentBinary
  const index_t* ind = nullptr;   // kSegmentBinary / kListBinary
  const index_t* map = nullptr;   // kFunction
};

/// One record that captures EVERYTHING the linked engine needs to know
/// about a level: its storage shape plus the raw arrays backing it. A
/// level describes itself ONCE (IndexLevel::describe); the cursor and the
/// search spec are derived mechanically from the descriptor by the
/// lowering functions below, and the C emitter switches on the same kind,
/// so adding a format means writing one describe() — not a cursor backend,
/// a search lowering and an emitter case by hand. kOpaque means the level has no flat shape
/// (stateful or growable storage): cursors fall back to the buffered
/// enumerate adapter and probes stay virtual.
struct LevelDescriptor {
  enum class Kind : unsigned char {
    kOpaque,      // no flat description — virtual fallbacks
    kDense,       // contiguous [0, extent); pos = parent*stride + k
    kCompressed,  // CSR-style segments: ptr bounds into ind
    kList,        // one flat sorted/unsorted ind array (sparse vector)
    kSingleton,   // exactly one child: idx = map[parent], pos = parent
    kStrided,     // lane-major ELLPACK: pos = parent + k*stride
    kOffsets,     // diagonal-major JDS: pos = off[k] + parent
    kBlocked,     // BCSR blocked(r, c): ptr/ind over r x c value blocks
    kSliced,      // SELL-C-sigma sliced(C, sigma): per-row base + k*C
  };

  Kind kind = Kind::kOpaque;
  index_t extent = 0;  // kDense / kList / kSingleton domain size
  index_t stride = 0;  // kDense pos multiplier / kStrided lane stride /
                       // kSliced chunk width C
  bool sorted = true;  // enumeration yields ascending indices
  const index_t* ptr = nullptr;  index_t ptr_len = 0;  // kCompressed/kBlocked
  const index_t* ind = nullptr;  index_t ind_len = 0;  // all sparse kinds
  const index_t* off = nullptr;  index_t off_len = 0;  // kOffsets / kSliced
  const index_t* len = nullptr;  index_t len_len = 0;  // per-parent counts
  const index_t* map = nullptr;  index_t map_len = 0;  // kSingleton
  index_t block_r = 0;  // kBlocked
  index_t block_c = 0;  // kBlocked
  index_t chunk = 0;    // kSliced C
  index_t sigma = 0;    // kSliced sorting-window sigma
};

/// Fills `c` with the cursor over the children of `parent`, derived from
/// the descriptor. Must not be called on kOpaque descriptors.
void descriptor_cursor(const LevelDescriptor& d, index_t parent, Cursor& c);

/// The flat search method the descriptor supports (kVirtual when the kind
/// has no arithmetic/binary search form — blocked and sliced levels only
/// ever drive).
SearchSpec descriptor_search(const LevelDescriptor& d);

/// Human-readable one-liner for EXPLAIN footers: "dense 64", "compressed",
/// "blocked 4x4", "sliced C=8 sigma=32", ...
std::string descriptor_text(const LevelDescriptor& d);

}  // namespace bernoulli::relation
