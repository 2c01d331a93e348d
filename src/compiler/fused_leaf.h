/* The fused SpMV leaf bodies, written once for both of their callers.
 *
 * A fused leaf form (compiler::leaf_form) drains a two-level plan's whole
 * dense outer range in one loop: row k binds level 0 at k (every level-0
 * position is the outer counter), walks its leaf segment and folds each
 * element's product into the target. The linked engine
 * (compiler/exec_linked.cpp) includes this file and calls fl_drain with
 * the SpMV pairs' operand forms as literals; the C emitter
 * (compiler/emit_standalone.cpp) pastes this text into every kernel and
 * calls the leaf's drain with the plan's lowering (lower_fused) as
 * constants. Either way the compiler folds the constants through the
 * inlined calls, so each pair runs its own specialized loop.
 *
 * Plain C99: no includes, no library calls, int indices (index_t). Every
 * row sums its elements in enumeration order and each product multiplies
 * the scale first and the factors left to right, the per-element
 * multiply-accumulate's order, so results are bitwise the level stack's.
 */
#ifndef BERNOULLI_COMPILER_FUSED_LEAF_H
#define BERNOULLI_COMPILER_FUSED_LEAF_H

#define FL_INLINE static inline __attribute__((always_inline))

/* Log2Histogram::kBuckets: fan-out samples land in bucket
 * min(bit_width(n), FL_BUCKETS - 1). */
#define FL_BUCKETS 40
/* Factors per row whose one element a register holds (fl_open). */
#define FL_HOLD 4
/* Rows of one block row summed in one pass over its blocks. The tile's
 * row loops carry `#pragma GCC unroll 4` (a pragma takes no macro): -O2
 * alone leaves a short row loop rolled and the accumulators a[] in
 * memory; unrolled, they live in registers. */
#define FL_TILE 4

/* Leaf storage kinds. */
enum { FL_COMPRESSED, FL_SLICED, FL_BLOCKED };

/* One operand's position at outer row k, leaf position pos and leaf index
 * idx: base + k * step + (mp & pos) + (mi & idx), with mp and mi all ones
 * or zero. An operand with mp == mi == 0 reads one element per row. */
typedef struct fl_op {
  const double* data; /* the factor's values (the target's: unused) */
  int base, step, mp, mi;
} fl_op;

/* The leaf level under outer row k:
 *   compressed: positions [lo[k], hi[k]), index ind[pos];
 *   sliced:     len[k] positions off[k] + e * chunk, index ind[pos];
 *   blocked:    br x bc blocks, row k in block row k / br; the block row's
 *               blocks are [ptr[q], ptr[q + 1]), block b's lanes start at
 *               index ind[b] * bc and position b * br * bc. */
typedef struct fl_leaf {
  int kind;
  const int *lo, *hi, *ind, *off, *len;
  int chunk;
  const int* ptr;
  int br, bc;
} fl_leaf;

/* target[t] += scale * ops[0] * ... * ops[nops - 1]. With acc the target
 * element is fixed per row (t reads no leaf position) and accumulates in
 * a register; no factor may alias the target. */
typedef struct fl_mac {
  double scale;
  int nops;
  const fl_op* ops;
  double* y;
  fl_op t;
  int acc;
} fl_mac;

FL_INLINE int fl_bucket(long long n) {
  int k = 0;
  if (n <= 0) return 0;
  k = 64 - __builtin_clzll((unsigned long long)n);
  return k < FL_BUCKETS - 1 ? k : FL_BUCKETS - 1;
}

FL_INLINE int fl_at(const fl_op* o, int k, int pos, int idx) {
  return o->base + k * o->step + (o->mp & pos) + (o->mi & idx);
}

FL_INLINE int fl_held(const fl_mac* m, int i) {
  return i < FL_HOLD && (m->ops[i].mp | m->ops[i].mi) == 0;
}

FL_INLINE void fl_hold_one(const fl_mac* m, int i, int k, double* h) {
  h[i] = i < m->nops && fl_held(m, i)
             ? m->ops[i].data[fl_at(&m->ops[i], k, 0, 0)]
             : 0.0;
}

FL_INLINE double fl_factor(const fl_mac* m, const double* h, int i, int k,
                           int pos, int idx) {
  return fl_held(m, i) ? h[i]
                       : m->ops[i].data[fl_at(&m->ops[i], k, pos, idx)];
}

/* Opens row k: its per-row factor elements into h and, with acc, its
 * target element into *a. */
FL_INLINE void fl_open(const fl_mac* m, int k, double* h, double* a) {
  fl_hold_one(m, 0, k, h);
  fl_hold_one(m, 1, k, h);
  fl_hold_one(m, 2, k, h);
  fl_hold_one(m, 3, k, h);
  *a = m->acc ? m->y[fl_at(&m->t, k, 0, 0)] : 0.0;
}

FL_INLINE void fl_close(const fl_mac* m, int k, double a) {
  if (m->acc) m->y[fl_at(&m->t, k, 0, 0)] = a;
}

/* One element: its product, then the register or the stored target. The
 * first two factors are peeled, so a two-factor product has no loop. */
FL_INLINE void fl_elem(const fl_mac* m, const double* h, int k, int pos,
                       int idx, double* a) {
  double prod = m->scale;
  int i;
  if (m->nops > 0) prod *= fl_factor(m, h, 0, k, pos, idx);
  if (m->nops > 1) prod *= fl_factor(m, h, 1, k, pos, idx);
  for (i = 2; i < m->nops; ++i) prod *= fl_factor(m, h, i, k, pos, idx);
  if (m->acc)
    *a += prod;
  else
    m->y[fl_at(&m->t, k, pos, idx)] += prod;
}

/* The drains: outer rows [k0, k1), row k's leaf parent k. Each returns
 * the leaf tuples and, with fan, books every row's level-1 fan-out
 * sample. */
/* Compressed or sliced leaf: row k's positions base + e * stride. */
FL_INLINE long long fl_drain_rows(const fl_leaf* L, const fl_mac* m, int k0,
                                  int k1, long long* fan) {
  const int sliced = L->kind == FL_SLICED;
  const int stride = sliced ? L->chunk : 1;
  long long w = 0;
  int k, e;
  for (k = k0; k < k1; ++k) {
    const int base = sliced ? L->off[k] : L->lo[k];
    const int n = sliced ? L->len[k] : L->hi[k] - base;
    if (n > 0) {
      double h[FL_HOLD];
      double a;
      fl_open(m, k, h, &a);
      for (e = 0; e < n; ++e) {
        const int pos = base + e * stride;
        fl_elem(m, h, k, pos, L->ind[pos], &a);
      }
      fl_close(m, k, a);
    }
    w += n;
    if (fan) ++fan[fl_bucket(n)];
  }
  return w;
}

/* Rows [r0, r1) of block row q, the first of them outer row k, in tiles
 * of up to FL_TILE rows: each block is read once per tile, every row sums
 * block by block and lane by lane in its own accumulator. Several rows
 * need acc. Books the rows' fan-out; returns their tuples. */
FL_INLINE long long fl_block_row(const fl_leaf* L, const fl_mac* m, int q,
                                 int r0, int r1, int k, long long* fan) {
  const int b0 = L->ptr[q];
  const int b1 = L->ptr[q + 1];
  const int bc = L->bc;
  const int n = (b1 - b0) * bc;
  int g, r, b, c;
  if (fan) fan[fl_bucket(n)] += r1 - r0;
  if (n <= 0) return 0;
  for (g = r0; g < r1; g += FL_TILE) {
    const int t = r1 - g < FL_TILE ? r1 - g : FL_TILE;
    const int kg = k + (g - r0);
    double h[FL_TILE][FL_HOLD];
    double a[FL_TILE] = {0.0}; /* rows past t: never read */
#pragma GCC unroll 4
    for (r = 0; r < t; ++r) fl_open(m, kg + r, h[r], &a[r]);
    for (b = b0; b < b1; ++b) {
      const int jb = L->ind[b] * bc;
      const int pb = (b * L->br + g) * bc;
#pragma GCC unroll 4
      for (r = 0; r < t; ++r)
        for (c = 0; c < bc; ++c)
          fl_elem(m, h[r], kg + r, pb + r * bc + c, jb + c, &a[r]);
    }
#pragma GCC unroll 4
    for (r = 0; r < t; ++r) fl_close(m, kg + r, a[r]);
  }
  return (long long)n * (r1 - r0);
}

/* Whole block rows [q0, q1) of a leaf with acc. The emitted glue calls
 * this directly when the outer range is whole block rows. */
FL_INLINE long long fl_block_rows(const fl_leaf* L, const fl_mac* m, int q0,
                                  int q1, long long* fan) {
  long long w = 0;
  int q;
  for (q = q0; q < q1; ++q)
    w += fl_block_row(L, m, q, 0, L->br, q * L->br, fan);
  return w;
}

/* Blocked leaf: with acc, the range's whole block rows [w0, w1) at once;
 * the rows before and after them, and every row without acc, one at a
 * time, in order. */
FL_INLINE long long fl_drain_blocked(const fl_leaf* L, const fl_mac* m,
                                     int k0, int k1, long long* fan) {
  const int br = L->br;
  int w0 = m->acc ? (k0 + br - 1) / br * br : k1;
  int w1 = m->acc ? k1 / br * br : k1;
  long long w = 0;
  int k;
  if (w0 > w1) w0 = w1 = k1;
  for (k = k0; k < w0; ++k)
    w += fl_block_row(L, m, k / br, k % br, k % br + 1, k, fan);
  w += fl_block_rows(L, m, w0 / br, w1 / br, fan);
  for (k = w1; k < k1; ++k)
    w += fl_block_row(L, m, k / br, k % br, k % br + 1, k, fan);
  return w;
}

/* The drain of the leaf's kind. */
FL_INLINE long long fl_drain(const fl_leaf* L, const fl_mac* m, int k0,
                             int k1, long long* fan) {
  return L->kind == FL_BLOCKED ? fl_drain_blocked(L, m, k0, k1, fan)
                               : fl_drain_rows(L, m, k0, k1, fan);
}

#endif /* BERNOULLI_COMPILER_FUSED_LEAF_H */
