#include "compiler/emit_standalone.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

namespace {

// `prefix` followed by the decimal `n`. Built by appending: GCC 12 at -O3
// reports a false -Wrestrict overlap inside `"literal" + std::string&&`.
std::string numbered(const char* prefix, long long n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

// Runtime arrays the generated code references, deduplicated by pointer
// and named after their slot in the corresponding argument vector.
struct ArgPool {
  std::vector<const index_t*> ints;
  std::vector<const value_t*> consts;
  std::vector<value_t*> outs;

  std::string int_name(const index_t* p) {
    for (std::size_t i = 0; i < ints.size(); ++i)
      if (ints[i] == p) return numbered("I", i);
    ints.push_back(p);
    return numbered("I", ints.size() - 1);
  }
  std::string const_name(const value_t* p) {
    for (std::size_t i = 0; i < consts.size(); ++i)
      if (consts[i] == p) return numbered("D", i);
    consts.push_back(p);
    return numbered("D", consts.size() - 1);
  }
  std::string out_name(value_t* p) {
    for (std::size_t i = 0; i < outs.size(); ++i)
      if (outs[i] == p) return numbered("W", i);
    outs.push_back(p);
    return numbered("W", outs.size() - 1);
  }
};

// parent*stride + k, with the degenerate forms collapsed.
std::string affine_expr(const std::string& parent, index_t stride,
                        const std::string& k) {
  if (stride == 0 || parent == "0") return k;
  return parent + " * " + std::to_string(stride) + " + " + k;
}

std::string pvar(int slot) { return numbered("p", slot); }
std::string vvar(int slot) { return numbered("v", slot); }

std::string parent_expr(int parent_slot) {
  return parent_slot < 0 ? "0" : pvar(parent_slot);
}

std::string rel_name(const LinkedPlan& lp, index_t rel) {
  return lp.query->relations[static_cast<std::size_t>(rel)].view->name();
}

// The kernel body under construction: its text, the current indent and
// the argument pools its lines reference.
struct CBody {
  ArgPool pool;
  std::ostringstream text;
  int indent = 1;
  bool need_binsearch = false;

  void line(const std::string& s) {
    for (int i = 0; i < indent; ++i) text << "  ";
    text << s << '\n';
  }
  void open(const std::string& s) {
    line(s);
    ++indent;
  }
  void close() {
    --indent;
    line("}");
  }
};

// Always-hit proof for an identity/affine probe: it checks
// 0 <= idx < extent and the idx it sees is its level's variable, whose
// enumerated range link_plan stored.
bool probe_proved(const LinkedLevel& lv, const LinkedProbe& pr) {
  return pr.var_slot == lv.var_slot && lv.range.within(pr.search.extent);
}

// One probe's position: a bare assignment when proved, else the bounds
// test or search, a miss either `continue`-ing (filtering relation) or
// failing the run.
void emit_probe(CBody& b, const LinkedLevel& lv, const LinkedProbe& pr) {
  const std::string pv = vvar(pr.var_slot);
  const std::string pp = parent_expr(pr.access.parent_slot);
  const std::string ps = pvar(pr.access.pos_slot);
  const std::string miss =
      pr.filters ? "{ ++misses; continue; }" : "return 1;";
  const bool proved = probe_proved(lv, pr);
  using SKind = relation::SearchSpec::Kind;
  switch (pr.search.kind) {
    case SKind::kIdentity:
    case SKind::kAffine: {
      const std::string pos = pr.search.kind == SKind::kIdentity
                                  ? pv
                                  : affine_expr(pp, pr.search.stride, pv);
      if (proved) {
        b.line("const int " + ps + " = " + pos + ";  /* proved in [0, " +
               std::to_string(pr.search.extent) + ") */");
      } else {
        b.line("if (" + pv + " < 0 || " + pv + " >= " +
               std::to_string(pr.search.extent) + ") " + miss);
        b.line("const int " + ps + " = " + pos + ";");
      }
      break;
    }
    case SKind::kSegmentBinary: {
      b.need_binsearch = true;
      const std::string ptr = b.pool.int_name(pr.search.ptr);
      const std::string ind_a = b.pool.int_name(pr.search.ind);
      b.line("const int " + ps + " = binsearch(" + ind_a + ", " + ptr + "[" +
             pp + "], " + ptr + "[" + pp + " + 1], " + pv + ");");
      b.line("if (" + ps + " < 0) " + miss);
      break;
    }
    case SKind::kListBinary: {
      b.need_binsearch = true;
      const std::string ind_a = b.pool.int_name(pr.search.ind);
      b.line("const int " + ps + " = binsearch(" + ind_a + ", 0, " +
             std::to_string(pr.search.extent) + ", " + pv + ");");
      b.line("if (" + ps + " < 0) " + miss);
      break;
    }
    case SKind::kFunction: {
      const std::string map = b.pool.int_name(pr.search.map);
      b.line("if (" + map + "[" + pp + "] != " + pv + ") " + miss);
      b.line("const int " + ps + " = " + pp + ";");
      break;
    }
    case SKind::kVirtual:
      break;  // refused before emission
  }
}

// The multiply-accumulate product in the engines' exact operation order:
// scale first, factors left to right. A nonempty held[i] names the
// register holding factor i for the whole leaf range.
void emit_product(CBody& b, const LinkedPlan& lp, const LinkedMac& mac,
                  const std::vector<std::string>& held) {
  std::ostringstream sc;
  sc.precision(17);
  sc << mac.scale;
  b.line("double prod = " + sc.str() + ";");
  for (std::size_t i = 0; i < mac.factors.size(); ++i) {
    const LinkedMac::Factor& f = mac.factors[i];
    b.line("prod *= " +
           (held[i].empty()
                ? b.pool.const_name(f.data.data()) + "[" +
                      pvar(lp.leaf_slot[f.slot]) + "]"
                : held[i]) +
           ";");
  }
}

// Today's general form: one loop block per level, counters booked per
// tuple, one store per product. Covers every plan emission accepts.
void emit_nested(CBody& b, const LinkedPlan& lp, const LinkedMac& mac) {
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    const relation::LevelDescriptor& es = lv.drivers[0].desc;
    const std::string D = std::to_string(d);
    const std::string en = "en" + D;
    const std::string prn = "prn" + D;
    const std::string P = parent_expr(lv.drivers[0].parent_slot);
    const std::string p = pvar(lv.drivers[0].pos_slot);
    const std::string v = vvar(lv.var_slot);
    const std::string k = "k" + D;

    b.open("{  /* level " + D + ": enumerate " +
           rel_name(lp, lv.drivers[0].rel) + " */");
    b.line("long long " + en + " = 0, " + prn + " = 0;");
    // Per-level time attribution (the lvl_ns ABI slots, docs/CODEGEN.md):
    // level 0 brackets the whole kernel exactly; deeper levels bracket
    // whole invocations, sampled on the outer enumeration counter so the
    // probes' `continue` paths cannot skip a close.
    if (d == 0) {
      b.line("const int pon0 = prof;");
    } else {
      b.line("const int pon" + D + " = prof && en0 % " +
             std::to_string(support::kProfileSampleEvery) + " == 1;");
    }
    b.line("const long long pns" + D + " = pon" + D + " ? now_ns() : 0;");
    using K = relation::LevelDescriptor::Kind;
    switch (es.kind) {
      case K::kDense:
        b.open("for (int " + k + " = 0; " + k + " < " +
               std::to_string(es.extent) + "; ++" + k + ") {");
        b.line("++" + en + ";");
        b.line("const int " + v + " = " + k + ";");
        b.line("const int " + p + " = " + affine_expr(P, es.stride, k) + ";");
        break;
      case K::kCompressed: {
        const std::string ptr = b.pool.int_name(es.ptr);
        const std::string ind_a = b.pool.int_name(es.ind);
        b.open("for (int " + p + " = " + ptr + "[" + P + "]; " + p + " < " +
               ptr + "[" + P + " + 1]; ++" + p + ") {");
        b.line("++" + en + ";");
        b.line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case K::kList: {
        const std::string ind_a = b.pool.int_name(es.ind);
        b.open("for (int " + p + " = 0; " + p + " < " +
               std::to_string(es.ind_len) + "; ++" + p + ") {");
        b.line("++" + en + ";");
        b.line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case K::kSingleton: {
        const std::string map = b.pool.int_name(es.map);
        // A single child; the loop form keeps `continue` meaningful for
        // filtering probes.
        b.open("for (int " + k + " = 0; " + k + " < 1; ++" + k + ") {");
        b.line("++" + en + ";");
        b.line("const int " + v + " = " + map + "[" + P + "];");
        b.line("const int " + p + " = " + P + ";");
        break;
      }
      case K::kStrided: {
        const std::string ind_a = b.pool.int_name(es.ind);
        const std::string len = b.pool.int_name(es.len);
        b.open("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
               "]; ++" + k + ") {");
        b.line("++" + en + ";");
        b.line("const int " + p + " = " + P + " + " + k + " * " +
               std::to_string(es.stride) + ";");
        b.line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case K::kOffsets: {
        const std::string ind_a = b.pool.int_name(es.ind);
        const std::string off = b.pool.int_name(es.off);
        const std::string len = b.pool.int_name(es.len);
        b.open("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
               "]; ++" + k + ") {");
        b.line("++" + en + ";");
        b.line("const int " + p + " = " + off + "[" + k + "] + " + P + ";");
        b.line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case K::kBlocked: {
        // One block row per parent row: the block loop walks the stored
        // blocks, the lane loop has a literal trip count (block_c), which
        // cc -O2 fully unrolls. The lane body is the loop's compound
        // statement, so the level's single closing brace closes both.
        const std::string ptr = b.pool.int_name(es.ptr);
        const std::string ind_a = b.pool.int_name(es.ind);
        const std::string rs = std::to_string(es.block_r);
        const std::string cs = std::to_string(es.block_c);
        const std::string rc = std::to_string(es.block_r * es.block_c);
        const std::string bb = "b" + D;
        const std::string cc = "cc" + D;
        b.line("const int br" + D + " = " + P + " / " + rs + ";");
        b.line("const int ro" + D + " = (" + P + " % " + rs + ") * " + cs +
               ";");
        b.line("for (int " + bb + " = " + ptr + "[br" + D + "]; " + bb +
               " < " + ptr + "[br" + D + " + 1]; ++" + bb + ")");
        b.open("for (int " + cc + " = 0; " + cc + " < " + cs + "; ++" + cc +
               ") {");
        b.line("++" + en + ";");
        b.line("const int " + v + " = " + ind_a + "[" + bb + "] * " + cs +
               " + " + cc + ";");
        b.line("const int " + p + " = " + bb + " * " + rc + " + ro" + D +
               " + " + cc + ";");
        break;
      }
      case K::kSliced: {
        // len[]-bounded lane walk: padding slots past a row's length are
        // never touched, so the emitted kernel books the same counters as
        // the engines.
        const std::string ind_a = b.pool.int_name(es.ind);
        const std::string off = b.pool.int_name(es.off);
        const std::string len = b.pool.int_name(es.len);
        b.line("const int sb" + D + " = " + off + "[" + P + "];");
        b.open("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
               "]; ++" + k + ") {");
        b.line("++" + en + ";");
        b.line("const int " + p + " = sb" + D + " + " + k + " * " +
               std::to_string(es.chunk) + ";");
        b.line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case K::kOpaque:
        break;  // refused before emission
    }

    for (const LinkedProbe& pr : lv.probes) {
      emit_probe(b, lv, pr);
      b.line("++hits;");
    }
    b.line("++" + prn + ";");
  }

  b.line("++tuples;");
  emit_product(b, lp, mac, std::vector<std::string>(mac.factors.size()));
  b.line(b.pool.out_name(mac.target_data.data()) + "[" +
         pvar(lp.leaf_slot[mac.target_slot]) + "] += prod;");

  // Close the loops innermost-out, booking each level's invocation totals
  // and its one fan-out sample — the linked engine's close_frame.
  for (std::size_t d = lp.levels.size(); d-- > 0;) {
    const std::string D = std::to_string(d);
    b.close();
    b.line("if (pon" + D + ") { lvl_ns[" + std::to_string(3 * d) +
           "] += now_ns() - pns" + D + "; ++lvl_ns[" +
           std::to_string(3 * d + 1) + "]; lvl_ns[" +
           std::to_string(3 * d + 2) + "] += prn" + D + "; }");
    b.line("lvl_enum[" + D + "] += en" + D + ";");
    b.line("lvl_prod[" + D + "] += prn" + D + ";");
    b.line("++fanout[" + D + " * " +
           std::to_string(support::Log2Histogram::kBuckets) +
           " + bucket_of(prn" + D + ")];");
    b.close();
  }
}

// The fused forms (see leaf_form): one loop over the outer range whose
// rows bind level 0 arithmetically (every level-0 position is the outer
// counter k0), a leaf loop per row that keeps the row's target element or
// its level-0 factors in registers, and counters booked per row as element
// counts. A blocked leaf with a level-0 target walks one block row per
// step instead: block_r accumulators, each block read once for all its
// rows, every row still summing block by block and lane by lane. Rows sum
// in the per-element form's order, so results are bitwise the same.
//
// Profiling: level 1 is timed on 64-row strips (block rows covering 64
// rows for the tile) whose first row or block row runs alone inside the
// bracket, so the row loop itself makes no call and tests no sampling
// condition. The sampled rows are the per-element form's (en0 % 64 == 1).
void emit_fused(CBody& b, const LinkedPlan& lp, const LinkedMac& mac,
                LeafForm form, const std::string& note) {
  using K = relation::LevelDescriptor::Kind;
  const LinkedLevel& lv0 = lp.levels[0];
  const LinkedLevel& lv1 = lp.levels[1];
  const relation::LevelDescriptor& es = lv1.drivers[0].desc;
  // Per position slot: written at level 0, so it holds the outer counter.
  std::vector<bool> outer(static_cast<std::size_t>(lp.pos_slots), false);
  outer[static_cast<std::size_t>(lv0.drivers[0].pos_slot)] = true;
  for (const LinkedProbe& pr : lv0.probes)
    outer[static_cast<std::size_t>(pr.access.pos_slot)] = true;
  const bool tile = form == LeafForm::kBlockRow;
  const index_t n = lv0.drivers[0].desc.extent;
  const index_t step = tile ? es.block_r : 1;
  const index_t strip =
      step * std::max<index_t>(1, support::kProfileSampleEvery / step);
  const index_t full = n - n % step;  // rows in whole steps
  const std::string N = std::to_string(n);
  const std::string FULL = std::to_string(full);
  const std::string STRIP = std::to_string(strip);
  const std::string P = parent_expr(lv1.drivers[0].parent_slot);
  const std::string pd = pvar(lv1.drivers[0].pos_slot);
  const std::string vd = vvar(lv1.var_slot);
  const std::string cs = std::to_string(es.block_c);
  const std::string W = b.pool.out_name(mac.target_data.data());
  const std::string tpos = pvar(lp.leaf_slot[mac.target_slot]);
  const std::string fan1 =
      "fanout[1 * " + std::to_string(support::Log2Histogram::kBuckets) +
      " + bucket_of(n1)]";

  // Level 0's bindings at outer counter value `k`.
  auto bind_outer = [&](const std::string& k) {
    b.line("const int " + vvar(lv0.var_slot) + " = " + k + ";");
    b.line("const int " + pvar(lv0.drivers[0].pos_slot) + " = " +
           vvar(lv0.var_slot) + ";");
    for (const LinkedProbe& pr : lv0.probes) emit_probe(b, lv0, pr);
  };
  auto leaf_probes = [&] {
    for (const LinkedProbe& pr : lv1.probes) emit_probe(b, lv1, pr);
  };

  // One row: its leaf range [lo1, hi1) or n1 lanes from sb1, the operands
  // bound at level 0 in registers, the leaf loop, the row's totals.
  auto row = [&] {
    bind_outer("k0");
    switch (es.kind) {
      case K::kCompressed: {
        const std::string ptr = b.pool.int_name(es.ptr);
        b.line("const int lo1 = " + ptr + "[" + P + "], hi1 = " + ptr + "[" +
               P + " + 1];");
        b.line("const int n1 = hi1 - lo1;");
        break;
      }
      case K::kSliced:
        b.line("const int sb1 = " + b.pool.int_name(es.off) + "[" + P + "];");
        b.line("const int n1 = " + b.pool.int_name(es.len) + "[" + P + "];");
        break;
      default: {  // kBlocked
        const std::string ptr = b.pool.int_name(es.ptr);
        const std::string rs = std::to_string(es.block_r);
        b.line("const int br1 = " + P + " / " + rs + ";");
        b.line("const int ro1 = (" + P + " % " + rs + ") * " + cs + ";");
        b.line("const int lo1 = " + ptr + "[br1], hi1 = " + ptr +
               "[br1 + 1];");
        b.line("const int n1 = (hi1 - lo1) * " + cs + ";");
        break;
      }
    }
    const bool acc = form == LeafForm::kAccumulator;
    if (acc) b.line("double acc = " + W + "[" + tpos + "];");
    std::vector<std::string> held(mac.factors.size());
    for (std::size_t i = 0; i < mac.factors.size(); ++i) {
      const int s = lp.leaf_slot[mac.factors[i].slot];
      if (!outer[static_cast<std::size_t>(s)]) continue;
      held[i] = numbered("h", i);
      b.line("const double " + held[i] + " = " +
             b.pool.const_name(mac.factors[i].data.data()) + "[" + pvar(s) +
             "];");
    }
    const std::string ind = b.pool.int_name(es.ind);
    switch (es.kind) {
      case K::kCompressed:
        b.open("for (int " + pd + " = lo1; " + pd + " < hi1; ++" + pd +
               ") {");
        b.line("const int " + vd + " = " + ind + "[" + pd + "];");
        break;
      case K::kSliced:
        b.open("for (int k1 = 0; k1 < n1; ++k1) {");
        b.line("const int " + pd + " = sb1 + k1 * " +
               std::to_string(es.chunk) + ";");
        b.line("const int " + vd + " = " + ind + "[" + pd + "];");
        break;
      default:  // kBlocked
        b.line("for (int b1 = lo1; b1 < hi1; ++b1)");
        b.open("for (int cc1 = 0; cc1 < " + cs + "; ++cc1) {");
        b.line("const int " + vd + " = " + ind + "[b1] * " + cs + " + cc1;");
        b.line("const int " + pd + " = b1 * " +
               std::to_string(es.block_r * es.block_c) + " + ro1 + cc1;");
        break;
    }
    leaf_probes();
    emit_product(b, lp, mac, held);
    b.line(acc ? "acc += prod;" : W + "[" + tpos + "] += prod;");
    b.close();
    if (acc) b.line(W + "[" + tpos + "] = acc;");
    b.line("w1 += n1;");
    b.line("++" + fan1 + ";");
  };

  // Rows k0 .. k0 + m - 1 of one block row: one accumulator per row, each
  // lane's column computed once, every row's product in its own scope.
  // The target is at a level-0 position, so row r's element is k0 + r.
  auto block_row = [&](index_t m) {
    const std::string ptr = b.pool.int_name(es.ptr);
    const std::string rs = std::to_string(es.block_r);
    b.line("const int lo1 = " + ptr + "[k0 / " + rs + "], hi1 = " + ptr +
           "[k0 / " + rs + " + 1];");
    b.line("const int n1 = (hi1 - lo1) * " + cs + ";");
    for (index_t r = 0; r < m; ++r)
      b.line("double acc" + std::to_string(r) + " = " + W + "[k0 + " +
             std::to_string(r) + "];");
    b.line("for (int b1 = lo1; b1 < hi1; ++b1)");
    b.open("for (int cc1 = 0; cc1 < " + cs + "; ++cc1) {");
    b.line("const int " + vd + " = " + b.pool.int_name(es.ind) + "[b1] * " +
           cs + " + cc1;");
    for (index_t r = 0; r < m; ++r) {
      const std::string R = std::to_string(r);
      b.open("{  /* row k0 + " + R + " */");
      bind_outer("k0 + " + R);
      b.line("const int " + pd + " = b1 * " +
             std::to_string(es.block_r * es.block_c) + " + " +
             std::to_string(r * es.block_c) + " + cc1;");
      leaf_probes();
      emit_product(b, lp, mac, std::vector<std::string>(mac.factors.size()));
      b.line("acc" + R + " += prod;");
      b.close();
    }
    b.close();
    for (index_t r = 0; r < m; ++r)
      b.line(W + "[k0 + " + std::to_string(r) + "] = acc" +
             std::to_string(r) + ";");
    b.line("w1 += " + std::to_string(m) + "LL * n1;");
    b.line(fan1 + " += " + std::to_string(m) + ";");
  };

  // A level-1 bracket around `m` rows. The host subtracts one calibrated
  // stamp cost per sample; a bracket over m > 1 rows books m samples but
  // pays for one stamp pair, so it adds the other m - 1 stamp costs back,
  // measured by one more stamp.
  auto open_sample = [&](const std::string& on) {
    b.line("const int pon1 = " + on + ";");
    b.line("const long long pns1 = pon1 ? now_ns() : 0;");
    b.line("const long long pw1 = w1;");
  };
  auto close_sample = [&](index_t m) {
    if (m == 1) {
      b.line("if (pon1) { lvl_ns[3] += now_ns() - pns1; ++lvl_ns[4]; "
             "lvl_ns[5] += w1 - pw1; }");
      return;
    }
    b.open("if (pon1) {");
    b.line("const long long pt1 = now_ns();");
    b.line("lvl_ns[3] += pt1 - pns1 + " + std::to_string(m - 1) +
           " * (now_ns() - pt1);");
    b.line("lvl_ns[4] += " + std::to_string(m) + ";");
    b.line("lvl_ns[5] += w1 - pw1;");
    b.close();
  };
  auto unit = [&](index_t m) {
    if (tile)
      block_row(m);
    else
      row();
  };

  b.open("{  /* levels 0-1 fused: enumerate " +
         rel_name(lp, lv0.drivers[0].rel) + ", then " +
         rel_name(lp, lv1.drivers[0].rel) + " (" + note + ") */");
  b.line("long long w1 = 0;  /* leaf tuples */");
  b.line("const int pon0 = prof;");
  b.line("const long long pns0 = pon0 ? now_ns() : 0;");
  if (full > 0) {
    const std::string STEP = std::to_string(step);
    b.open("for (int k0 = 0; k0 < " + FULL + ";) {");
    open_sample("prof && k0 % " + STRIP + " == 0");
    b.line("int e0 = " + FULL + ";");
    b.line("if (pon1) e0 = k0 + " + STEP + ";");
    b.line("else if (prof && " + FULL + " - k0 > " + STRIP + " - k0 % " +
           STRIP + ") e0 = k0 - k0 % " + STRIP + " + " + STRIP + ";");
    b.open("for (; k0 < e0; k0 += " + STEP + ") {");
    unit(step);
    b.close();
    close_sample(step);
    b.close();
  }
  if (full < n) {
    b.open("{  /* partial last block row */");
    b.line("const int k0 = " + FULL + ";");
    const bool sampled = full % strip == 0;
    if (sampled) open_sample("prof");
    unit(n - full);
    if (sampled) close_sample(n - full);
    b.close();
  }
  b.line("if (pon0) { lvl_ns[0] += now_ns() - pns0; ++lvl_ns[1]; "
         "lvl_ns[2] += " + N + "; }");
  b.line("lvl_enum[0] += " + N + ";");
  b.line("lvl_prod[0] += " + N + ";");
  b.line("++fanout[0 * " + std::to_string(support::Log2Histogram::kBuckets) +
         " + bucket_of(" + N + ")];");
  b.line("lvl_enum[1] += w1;");
  b.line("lvl_prod[1] += w1;");
  b.line("tuples += w1;");
  b.line("hits += " +
         std::to_string(static_cast<long long>(n) *
                        static_cast<long long>(lv0.probes.size())) +
         "LL + w1 * " + std::to_string(lv1.probes.size()) + ";");
  b.close();
}

}  // namespace

SpecializeLegality plan_specialize_legality(const LinkedPlan& lp) {
  auto refuse = [](std::string note) {
    return SpecializeLegality{false, std::move(note)};
  };
  if (lp.levels.empty()) return refuse("plan has no levels");
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    if (lv.method != JoinMethod::kEnumerate)
      return refuse("level " + std::to_string(d) +
                    " is a merge join; specialization covers enumerate-only "
                    "plans");
    if (lv.drivers[0].desc.kind == relation::LevelDescriptor::Kind::kOpaque)
      return refuse(rel_name(lp, lv.drivers[0].rel) +
                    " has no flat enumeration shape at level " +
                    std::to_string(d));
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.insert_on_miss)
        return refuse(rel_name(lp, pr.access.rel) +
                      " inserts on miss (sparse fill-in grows storage "
                      "mid-run)");
      if (pr.search.kind == relation::SearchSpec::Kind::kVirtual)
        return refuse(rel_name(lp, pr.access.rel) +
                      " probes through a virtual search (no flat lowering)");
    }
  }
  return {true,
          "every level enumerates a flat shape and every probe lowers to "
          "inline checks or binary searches"};
}

LinkedEmission emit_linked_c(const LinkedPlan& lp, const LinkedMac& mac,
                             const std::string& symbol) {
  BERNOULLI_CHECK(!symbol.empty());
  LinkedEmission out;
  out.symbol = symbol;
  out.num_levels = lp.levels.size();
  auto refuse = [&](const std::string& note) {
    out.ok = false;
    out.note = note;
    return out;
  };

  if (const SpecializeLegality leg = plan_specialize_legality(lp); !leg.ok)
    return refuse(leg.note);
  if (mac.target_data.empty())
    return refuse(mac.target->name() + " exposes no flat value array");
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty())
      return refuse(f.view->name() + " exposes no flat value array");

  // One leaf form per pair, the one the linked engine runs (leaf_form),
  // and per level the drain kind the host's profile commit books: the
  // fused leaf under its storage's kind, everything else per tuple.
  out.leaf_form = leaf_form(lp, mac, &out.leaf_note);
  for (std::size_t d = 0; d < lp.levels.size(); ++d)
    out.level_kinds.push_back(d + 1 == lp.levels.size() &&
                                      out.leaf_form != LeafForm::kPerElement
                                  ? fused_drain_kind(lp)
                                  : support::kProfTuple);
  CBody body;
  if (out.leaf_form == LeafForm::kPerElement)
    emit_nested(body, lp, mac);
  else
    emit_fused(body, lp, mac, out.leaf_form, out.leaf_note);
  body.line("ctr[0] += tuples;");
  body.line("ctr[1] += hits;");
  body.line("ctr[2] += misses;");
  body.line("return 0;");

  // bucket_of is Log2Histogram::bucket_of: the value's bit width, clamped
  // to the last bucket.
  std::ostringstream os;
  os << "/* kernel specialized at runtime from a linked plan; arrays are\n"
     << " * passed by the host, counters replicate the linked engine's\n"
     << " * bookkeeping (see compiler/specialize.hpp) */\n"
     << "#include <time.h>\n\n"
     << "static long long now_ns(void) {\n"
     << "  struct timespec ts;\n"
     << "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
     << "  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;\n"
     << "}\n\n"
     << "static int bucket_of(long long v) {\n"
     << "  if (v <= 0) return 0;\n"
     << "  const int k = 64 - __builtin_clzll((unsigned long long)v);\n"
     << "  return k < " << (support::Log2Histogram::kBuckets - 1) << " ? k : "
     << (support::Log2Histogram::kBuckets - 1) << ";\n"
     << "}\n\n";
  if (body.need_binsearch) {
    os << "static int binsearch(const int* ind, int lo, int hi, int key) {\n"
       << "  const int end = hi;\n"
       << "  while (lo < hi) {\n"
       << "    int mid = lo + (hi - lo) / 2;\n"
       << "    if (ind[mid] < key) lo = mid + 1; else hi = mid;\n"
       << "  }\n"
       << "  return (lo < end && ind[lo] == key) ? lo : -1;\n"
       << "}\n\n";
  }
  os << "int " << symbol
     << "(const int** ia, const double** da, double** wa,\n"
     << "    long long* ctr, long long* lvl_enum, long long* lvl_prod,\n"
     << "    long long* fanout, long long* lvl_ns, int prof) {\n"
     << "  (void)ia; (void)da; (void)wa; (void)lvl_ns; (void)prof;\n";
  const ArgPool& pool = body.pool;
  for (std::size_t i = 0; i < pool.ints.size(); ++i)
    os << "  const int* const I" << i << " = ia[" << i << "];\n";
  for (std::size_t i = 0; i < pool.consts.size(); ++i)
    os << "  const double* const D" << i << " = da[" << i << "];\n";
  for (std::size_t i = 0; i < pool.outs.size(); ++i)
    os << "  double* const W" << i << " = wa[" << i << "];\n";
  os << "  long long tuples = 0, hits = 0, misses = 0;\n"
     << body.text.str() << "}\n";

  out.ok = true;
  out.source = os.str();
  out.int_args = pool.ints;
  out.const_args = pool.consts;
  out.out_args = pool.outs;
  return out;
}

}  // namespace bernoulli::compiler
