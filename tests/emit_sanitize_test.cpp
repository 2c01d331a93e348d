// The emitted C under the address and undefined-behaviour sanitizers:
// emit_linked_c output for CSR, CCS, BCSR and SELL-C-σ SpMV is wrapped in
// a main() that bakes the plan's arrays in as exactly-sized globals, built
// with `cc -fsanitize=address,undefined`, run, and its y compared bitwise
// against the linked engine's. The cases cover every leaf form: the
// register-accumulator, hoisted-factor and block-row forms (including a
// partial last block row) and the per-element form an aliased y += A·y
// takes. Any out-of-bounds read of a ptr/ind/value array or any signed
// overflow in the generated index arithmetic fails the run. Skips (with
// the reason) when cc or the sanitizer runtime is missing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "compiler/emit_standalone.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

const char* const kFlags =
    "-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=undefined "
    "-fno-omit-frame-pointer -ffp-contract=off";

// Empty when cc can build and run a sanitized program; else the reason.
std::string sanitizer_unavailable() {
  if (std::system("cc --version > /dev/null 2>&1") != 0)
    return "no system C compiler (cc)";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "bernoulli_san_probe.c";
  const std::string bin = dir + "bernoulli_san_probe.bin";
  std::ofstream(src) << "int main(void) { return 0; }\n";
  const std::string build = std::string("cc ") + kFlags + " -o " + bin + " " +
                            src + " > /dev/null 2>&1";
  const bool ok = std::system(build.c_str()) == 0 &&
                  std::system((bin + " > /dev/null 2>&1").c_str()) == 0;
  std::remove(src.c_str());
  std::remove(bin.c_str());
  return ok ? "" : "cc lacks the address/undefined sanitizer runtime";
}

// Every array the emission can pass, keyed by address, with its length:
// the level descriptors' index arrays and the mac's value arrays.
std::map<const void*, std::size_t> array_sizes(const LinkedPlan& lp,
                                               const LinkedMac& mac) {
  std::map<const void*, std::size_t> sizes;
  auto add = [&](const void* p, long long n) {
    if (p != nullptr) sizes[p] = static_cast<std::size_t>(n);
  };
  auto add_desc = [&](const relation::LevelDescriptor& d) {
    add(d.ptr, d.ptr_len);
    add(d.ind, d.ind_len);
    add(d.off, d.off_len);
    add(d.len, d.len_len);
    add(d.map, d.map_len);
  };
  for (const LinkedLevel& lv : lp.levels) {
    for (const LinkedAccess& a : lv.drivers) add_desc(a.desc);
    for (const LinkedProbe& pr : lv.probes) add_desc(pr.access.desc);
  }
  for (const LinkedMac::Factor& f : mac.factors)
    add(f.data.data(), static_cast<long long>(f.data.size()));
  add(mac.target_data.data(), static_cast<long long>(mac.target_data.size()));
  return sizes;
}

template <class T>
void emit_array(std::ostream& os, const char* type, const std::string& name,
                const T* data, std::size_t n, bool is_const) {
  os << "static " << (is_const ? "const " : "") << type << " " << name << "["
     << std::max<std::size_t>(n, 1) << "] = {";
  if (n == 0) os << "0";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) os << ",";
    if constexpr (std::is_same_v<T, value_t>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%a", data[i]);
      os << buf;
    } else {
      os << data[i];
    }
  }
  os << "};\n";
}

// The emission plus a main() over exactly-sized copies of its arrays;
// prints every written array's values as hex floats. A read-only argument
// that is also written (y += A·y) passes the written copy, so the kernel
// sees its own stores as it does over the live arrays. Returns "" (and
// fails the test) when an argument's length is unknown.
std::string sanitized_program(const LinkedEmission& em,
                              const std::map<const void*, std::size_t>& sizes,
                              std::size_t levels) {
  std::ostringstream os;
  os << em.source << "\n#include <stdio.h>\n";
  auto size_of = [&](const void* p, std::size_t& n) {
    const auto it = sizes.find(p);
    if (it == sizes.end()) return false;
    n = it->second;
    return true;
  };
  std::size_t n = 0;
  for (std::size_t i = 0; i < em.int_args.size(); ++i) {
    if (!size_of(em.int_args[i], n)) return "";
    emit_array(os, "int", "IA" + std::to_string(i), em.int_args[i], n, true);
  }
  std::vector<std::string> da_names;
  for (std::size_t i = 0; i < em.const_args.size(); ++i) {
    const auto out = std::find(em.out_args.begin(), em.out_args.end(),
                               em.const_args[i]);
    if (out != em.out_args.end()) {
      da_names.push_back("WA" + std::to_string(out - em.out_args.begin()));
      continue;
    }
    if (!size_of(em.const_args[i], n)) return "";
    da_names.push_back("DA" + std::to_string(i));
    emit_array(os, "double", da_names.back(), em.const_args[i], n, true);
  }
  std::vector<std::size_t> out_sizes;
  for (std::size_t i = 0; i < em.out_args.size(); ++i) {
    if (!size_of(em.out_args[i], n)) return "";
    out_sizes.push_back(n);
    emit_array(os, "double", "WA" + std::to_string(i), em.out_args[i], n,
               false);
  }
  auto list = [&](const char* prefix, std::size_t count) {
    std::string s;
    for (std::size_t i = 0; i < count; ++i)
      s += std::string(i ? ", " : "") + prefix + std::to_string(i);
    return count == 0 ? std::string("0") : s;
  };
  std::string da_list = da_names.empty() ? "0" : "";
  for (std::size_t i = 0; i < da_names.size(); ++i)
    da_list += (i ? ", " : "") + da_names[i];
  const std::size_t fan = levels * 40;
  os << "int main(void) {\n"
     << "  const int* ia[] = {" << list("IA", em.int_args.size()) << "};\n"
     << "  const double* da[] = {" << da_list << "};\n"
     << "  double* wa[] = {" << list("WA", em.out_args.size()) << "};\n"
     << "  static long long ctr[3], le[" << levels << "], lp[" << levels
     << "], fo[" << fan << "], ns[" << levels * 3 << "];\n"
     << "  if (" << em.symbol
     << "(ia, da, wa, ctr, le, lp, fo, ns, 0) != 0) return 3;\n";
  for (std::size_t i = 0; i < out_sizes.size(); ++i)
    os << "  for (int k = 0; k < " << out_sizes[i]
       << "; ++k) printf(\"%a\\n\", WA" << i << "[k]);\n";
  os << "  return 0;\n}\n";
  return os.str();
}

Vector build_and_run(const std::string& program, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "bernoulli_san_" + tag + ".c";
  const std::string bin = dir + "bernoulli_san_" + tag + ".bin";
  const std::string out = src + ".out";
  std::ofstream(src) << program;
  const std::string build = std::string("cc ") + kFlags + " -o " + bin + " " +
                            src + " 2> " + src + ".log";
  EXPECT_EQ(std::system(build.c_str()), 0) << "cc failed, see " << src;
  EXPECT_EQ(std::system((bin + " > " + out + " 2>> " + src + ".log").c_str()),
            0)
      << "sanitized run failed, see " << src << ".log";
  Vector values;
  std::ifstream in(out);
  std::string line;
  while (std::getline(in, line))
    values.push_back(std::strtod(line.c_str(), nullptr));
  if (!::testing::Test::HasFailure()) {
    for (const std::string& f : {src, bin, out, src + ".log"})
      std::remove(f.c_str());
  }
  return values;
}

// Builds the kernel's SpMV emission over exactly-sized arrays, runs it
// sanitized, and expects y bitwise equal to the linked engine's run from
// the same start. Returns the emitted leaf form.
LeafForm expect_clean_and_bitwise(const CompiledKernel& k, Vector& y,
                                  const std::string& tag) {
  const LinkedPlan lp = link_plan(k.plan(), k.query());
  const LinkedMac mac = link_mac(k.query(), 1, {2, 3});

  // The program bakes in y's initial contents, so build it before the
  // linked run updates y in place.
  const LinkedEmission em = emit_linked_c(lp, mac, "sanitized_kernel");
  EXPECT_TRUE(em.ok) << em.note;
  const std::string program =
      sanitized_program(em, array_sizes(lp, mac), em.num_levels);
  EXPECT_FALSE(program.empty()) << "an argument's length is unknown";
  if (!em.ok || program.empty()) return em.leaf_form;

  LinkedRunner runner(link_plan(k.plan(), k.query()));
  runner.run(mac);
  const Vector got = build_and_run(program, tag);
  EXPECT_EQ(got.size(), y.size());
  for (std::size_t i = 0; i < y.size() && i < got.size(); ++i)
    EXPECT_EQ(got[i], y[i]) << "row " << i;  // bitwise
  return em.leaf_form;
}

TEST(EmitSanitize, SpmvOnEveryOuterFormatIsCleanAndBitwise) {
  const std::string why = sanitizer_unavailable();
  if (!why.empty()) GTEST_SKIP() << why;

  // Skewed rows with empty ones, dimensions divisible by the 4x4 blocks.
  const index_t rows = 36, cols = 28;
  SplitMix64 rng(41);
  formats::TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = i % 6 == 1 ? 0 : (i % 9 == 0 ? 17 : 1 + i % 4);
    for (index_t k = 0; k < len; ++k)
      tb.add(i, (i + 5 * k) % cols, rng.next_double(-1, 1));
  }
  const formats::Coo coo = std::move(tb).build();
  const formats::Csr csr = formats::Csr::from_coo(coo);
  const formats::Ccs ccs = formats::Ccs::from_coo(coo);
  const formats::Bsr bsr = formats::Bsr::from_coo(coo, 4);
  const formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y0(static_cast<std::size_t>(rows));
  for (auto& v : y0) v = rng.next_double(-1, 1);

  for (const bool aliased : {false, true}) {
    for (const std::string format : {"csr", "ccs", "bcsr", "sell"}) {
      // y += A·y needs a square A: the aliased runs use its leading
      // 28 x 28 part through a 28-row loop.
      const index_t n = aliased ? cols : rows;
      const std::string tag = format + (aliased ? "_aliased" : "");
      SCOPED_TRACE(tag);
      Vector y(y0.begin(), y0.begin() + n);
      Bindings b;
      if (format == "csr") b.bind_csr("A", csr);
      if (format == "ccs") b.bind_ccs("A", ccs);
      if (format == "bcsr") b.bind_bsr("A", bsr);
      if (format == "sell") b.bind_sell("A", sell);
      b.bind_dense_vector("X", aliased ? ConstVectorView(y)
                                       : ConstVectorView(x));
      b.bind_dense_vector("Y", VectorView(y));
      LoopNest nest{{{"i", n}, {"j", cols}},
                    {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
      const CompiledKernel k = compile(nest, b);
      const LeafForm form = expect_clean_and_bitwise(k, y, tag);
      if (aliased) {
        EXPECT_EQ(form, LeafForm::kPerElement);
      }
    }
  }
}

// BCSR(4) over a 40-row storage whose loop stops at row 38: the block-row
// form runs nine whole block rows and a two-row tail, whose padded rows
// 38 and 39 must never be read or written.
TEST(EmitSanitize, BcsrPartialLastBlockRowIsCleanAndBitwise) {
  const std::string why = sanitizer_unavailable();
  if (!why.empty()) GTEST_SKIP() << why;

  const index_t stored_rows = 40, rows = 38, cols = 40;
  SplitMix64 rng(43);
  formats::TripletBuilder tb(stored_rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    if (i >= 8 && i < 16) continue;  // block rows 2 and 3 empty
    for (index_t k = 0; k < 1 + i % 5; ++k)
      tb.add(i, (3 * i + 7 * k) % cols, rng.next_double(-1, 1));
  }
  const formats::Bsr bsr = formats::Bsr::from_coo(std::move(tb).build(), 4);
  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(rows));
  for (auto& v : y) v = rng.next_double(-1, 1);
  Bindings b;
  b.bind_bsr("A", bsr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  PlannerOptions opts;
  opts.allow_merge = false;
  opts.force_order = std::vector<std::string>{"i", "j"};
  const CompiledKernel k = compile(nest, b, opts);
  EXPECT_EQ(expect_clean_and_bitwise(k, y, "bcsr_tail"), LeafForm::kBlockRow);
}

}  // namespace
}  // namespace bernoulli::compiler
