#include "compiler/emit_standalone.hpp"

#include <algorithm>
#include <sstream>

#include "compiler/fused_lowering.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

namespace {

// compiler/fused_leaf.h's text (src/CMakeLists.txt generates the literal).
const char* const kFusedLeafText =
#include "compiler/fused_leaf_text.inc"
    ;

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

// A double as a C literal that reads back to the same value.
std::string c_double(value_t v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
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
// scale first, factors left to right.
void emit_product(CBody& b, const LinkedPlan& lp, const LinkedMac& mac) {
  b.line("double prod = " + c_double(mac.scale) + ";");
  for (const LinkedMac::Factor& f : mac.factors)
    b.line("prod *= " + b.pool.const_name(f.data.data()) + "[" +
           pvar(lp.leaf_slot[f.slot]) + "];");
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
  emit_product(b, lp, mac);
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
           " + fl_bucket(prn" + D + ")];");
    b.close();
  }
}

// The fused forms (see leaf_form): glue around one drain call
// (compiler/fused_leaf.h, pasted above the kernel) — the leaf's arrays,
// the pair's lowering (lower_fused) as constants, and the counters booked
// per range: level 0 enumerates, hits and produces every row, level 1
// every drained tuple. Profiling brackets the kernel (level 0) and the
// fused range (level 1) once each, exactly, as the linked engine does.
void emit_fused(CBody& b, const LinkedPlan& lp, const LinkedMac& mac,
                const std::string& note) {
  FusedLowering f;
  lower_fused(lp, mac, f);
  const LinkedLevel& lv0 = lp.levels[0];
  const LinkedLevel& lv1 = lp.levels[1];
  const fl_leaf& l = f.leaf;
  const std::string N = std::to_string(f.rows);
  auto arr = [&](const index_t* p) {
    return p == nullptr ? std::string("0") : b.pool.int_name(p);
  };
  auto op = [](const std::string& data, const fl_op& o) {
    return "{" + data + ", " + std::to_string(o.base) + ", " +
           std::to_string(o.step) + ", " + std::to_string(o.mp) + ", " +
           std::to_string(o.mi) + "}";
  };
  const std::string lo = arr(l.lo);
  std::string ops;
  for (std::size_t i = 0; i < f.factors.size(); ++i)
    ops += (i ? ", " : "") +
           op(b.pool.const_name(mac.factors[i].data.data()), f.factors[i]);

  b.open("{  /* levels 0-1 fused: enumerate " +
         rel_name(lp, lv0.drivers[0].rel) + ", then " +
         rel_name(lp, lv1.drivers[0].rel) + " (" + note + ") */");
  const bool blocked = l.kind == FL_BLOCKED;
  b.line(std::string("const fl_leaf leaf = {") +
         (blocked                ? "FL_BLOCKED"
          : l.kind == FL_SLICED ? "FL_SLICED"
                                : "FL_COMPRESSED") +
         ", " + lo + ", " + (l.lo == nullptr ? "0" : lo + " + 1") + ", " +
         arr(l.ind) + ", " + arr(l.off) + ", " + arr(l.len) + ", " +
         std::to_string(l.chunk) + ", " + arr(l.ptr) + ", " +
         std::to_string(l.br) + ", " + std::to_string(l.bc) + "};");
  b.line("const fl_op ops[] = {" + (ops.empty() ? op("0", fl_op{}) : ops) +
         "};");
  b.line("const fl_mac m = {" + c_double(mac.scale) + ", " +
         std::to_string(f.factors.size()) + ", ops, " +
         b.pool.out_name(mac.target_data.data()) + ", " + op("0", f.target) +
         ", " + (f.acc ? "1" : "0") + "};");
  b.line("const int pon0 = prof;");
  b.line("const long long pns0 = pon0 ? now_ns() : 0;");
  b.line("const long long pns1 = pon0 ? now_ns() : 0;");
  // The drain fl_drain would pick, named, so cc never sees the other; a
  // range of whole block rows skips fl_drain_blocked's single rows.
  const std::string fan =
      ", fanout + " + std::to_string(support::Log2Histogram::kBuckets) + ");";
  if (!blocked)
    b.line("const long long w1 = fl_drain_rows(&leaf, &m, 0, " + N + fan);
  else if (f.acc && f.rows % l.br == 0)
    b.line("const long long w1 = fl_block_rows(&leaf, &m, 0, " +
           std::to_string(f.rows / l.br) + fan);
  else
    b.line("const long long w1 = fl_drain_blocked(&leaf, &m, 0, " + N + fan);
  b.line("if (pon0 && w1 > 0) { lvl_ns[3] += now_ns() - pns1; ++lvl_ns[4]; "
         "lvl_ns[5] += w1; }");
  b.line("if (pon0) { lvl_ns[0] += now_ns() - pns0; ++lvl_ns[1]; "
         "lvl_ns[2] += " + N + "; }");
  b.line("lvl_enum[0] += " + N + ";");
  b.line("lvl_prod[0] += " + N + ";");
  b.line("++fanout[fl_bucket(" + N + ")];");
  b.line("lvl_enum[1] += w1;");
  b.line("lvl_prod[1] += w1;");
  b.line("tuples += w1;");
  b.line("hits += " +
         std::to_string(static_cast<long long>(f.rows) *
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
    emit_fused(body, lp, mac, out.leaf_note);
  body.line("ctr[0] += tuples;");
  body.line("ctr[1] += hits;");
  body.line("ctr[2] += misses;");
  body.line("return 0;");

  // The fused leaf bodies come first (fl_bucket is Log2Histogram::
  // bucket_of for the fan-out samples every form books).
  std::ostringstream os;
  os << "/* kernel specialized at runtime from a linked plan; arrays are\n"
     << " * passed by the host, counters replicate the linked engine's\n"
     << " * bookkeeping (see compiler/specialize.hpp) */\n"
     << "#include <time.h>\n\n"
     << kFusedLeafText << "\n"
     << "static long long now_ns(void) {\n"
     << "  struct timespec ts;\n"
     << "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
     << "  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;\n"
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
