#include "compiler/specialize.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define BERNOULLI_HAVE_MKDTEMP 1
#include <unistd.h>
#endif

namespace bernoulli::compiler {

namespace {

// The generated kernel's exported name. RTLD_LOCAL keeps each loaded
// kernel's symbols private, so reusing one name across kernels is fine.
constexpr const char* kSymbol = "bernoulli_specialized_kernel";

// Probed once per process: the toolchain does not come and go between
// kernels, and each probe forks a shell.
bool have_cc() {
  static const bool found = std::system("cc --version > /dev/null 2>&1") == 0;
  return found;
}

// `s` as one single-quoted shell word: a path reaches cc verbatim whatever
// spaces, quotes or `$` it holds.
std::string shell_word(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  return out + "'";
}

// cc command. Code generation: -ffp-contract=off forbids fused
// multiply-add contraction so the generated arithmetic matches the
// engines' separate mul/add sequence bitwise (the C++ build runs
// uncontracted on the x86-64 baseline). Link: the kernel's only import is
// clock_gettime, which resolves against the host process at dlopen, so
// -nostdlib skips the crt/libc/libgcc link and -fno-use-linker-plugin the
// LTO plugin; -pipe keeps the assembly off the disk.
std::string compile_command(const std::string& dir) {
  return "cc -O2 -fPIC -shared -ffp-contract=off -pipe -nostdlib "
         "-fno-use-linker-plugin -o " +
         shell_word(dir + "/kernel.so") + " " + shell_word(dir + "/kernel.c") +
         " 2> " + shell_word(dir + "/cc.log");
}

// The first line of cc's diagnostics, capped: the build directory (and the
// log in it) is removed with the kernel, so the note must carry it.
std::string first_diagnostic(const std::string& log_path) {
  constexpr std::size_t kMaxChars = 200;
  std::ifstream log(log_path);
  std::string line;
  if (!std::getline(log, line) || line.empty()) return "no diagnostics";
  if (line.size() > kMaxChars) line = line.substr(0, kMaxChars) + "...";
  return line;
}

}  // namespace

SpecializedKernel::SpecializedKernel(const LinkedPlan& lp,
                                     const LinkedMac& mac)
    : lp_(lp) {
  emission_ = emit_linked_c(lp, mac, kSymbol);
  if (!emission_.ok) {
    note_ = emission_.note;
    return;
  }
  if (!support::DynLib::available()) {
    note_ = "dynamic loading unavailable on this platform";
    return;
  }
#ifndef BERNOULLI_HAVE_MKDTEMP
  note_ = "no temporary-directory support on this platform";
  return;
#else
  if (!have_cc()) {
    note_ = "no C toolchain (cc not found)";
    return;
  }
  // The root honours TMPDIR (and the platform's other temp variables).
  namespace fs = std::filesystem;
  fs::path root;
  try {
    root = fs::temp_directory_path();
  } catch (const fs::filesystem_error& e) {
    note_ = "temporary-directory root '" + e.path1().string() +
            "' is unusable: " + e.code().message();
    return;
  }
  std::string tmpl = (root / "bernoulli-spec-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    note_ = "could not create a build directory under '" + root.string() +
            "': " + std::strerror(errno);
    return;
  }
  dir_ = tmpl;
  {
    std::ofstream src(dir_ + "/kernel.c");
    src << emission_.source;
    if (!src) {
      note_ = "could not write the generated source";
      return;
    }
  }
  if (std::system(compile_command(dir_).c_str()) != 0) {
    note_ = "cc failed to compile the generated kernel: " +
            first_diagnostic(dir_ + "/cc.log");
    return;
  }
  if (!lib_.open(dir_ + "/kernel.so")) {
    note_ = "dlopen failed: " + lib_.error();
    return;
  }
  void* addr = lib_.symbol(emission_.symbol);
  if (addr == nullptr) {
    note_ = "dlsym failed: " + lib_.error();
    return;
  }
  fn_ = reinterpret_cast<KernelFn>(addr);
  note_ = "compiled and loaded " + dir_ + "/kernel.so (" +
          emission_.leaf_note + ")";
  ctr_.assign(3, 0);
  lvl_enum_.assign(emission_.num_levels, 0);
  lvl_prod_.assign(emission_.num_levels, 0);
  lvl_ns_.assign(emission_.num_levels * 3, 0);
  if (lp_.footprint.exact) {
    rec_.model_bytes = lp_.footprint.total_bytes();
    rec_.model_flops = lp_.footprint.flops;
  }
#endif
}

SpecializedKernel::~SpecializedKernel() {
  lib_.close();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best-effort cleanup
  }
}

void SpecializedKernel::run(RunStats* stats) {
  BERNOULLI_CHECK_MSG(fn_ != nullptr,
                      "specialized kernel not loaded: " << note_);
  const auto wall_t0 = std::chrono::steady_clock::now();
  const bool tracing = support::trace_enabled();
  RunStats local;
  RunStats* st = stats ? stats : (tracing ? &local : nullptr);
  double t0 = 0;
  std::unique_ptr<support::TraceSpan> span;
  if (tracing) {
    span = std::make_unique<support::TraceSpan>("execute", "compiler");
    t0 = support::trace_now_us();
  }

  std::fill(ctr_.begin(), ctr_.end(), 0);
  std::fill(lvl_enum_.begin(), lvl_enum_.end(), 0);
  std::fill(lvl_prod_.begin(), lvl_prod_.end(), 0);
  std::fill(lvl_ns_.begin(), lvl_ns_.end(), 0);
  rec_.begin(emission_.num_levels);
  const bool profiling = support::profiling_enabled();
  const int rc =
      fn_(emission_.int_args.data(), emission_.const_args.data(),
          emission_.out_args.data(), ctr_.data(), lvl_enum_.data(),
          lvl_prod_.data(), rec_.fanout.data(), lvl_ns_.data(),
          profiling ? 1 : 0);
  BERNOULLI_CHECK_MSG(rc == 0,
                      "specialized kernel hit a non-filtering probe miss");

  // Commit exactly what the linked engine commits: executor.* counts by
  // the same names, per-level fan-out buckets, one latency sample whose
  // integer nanoseconds also feed execute.wall_ns, and per-level
  // RunStats. Merge/fill-in counts stay zero — the emitter refuses those
  // shapes.
  rec_.work.tuples = ctr_[0];
  rec_.work.probe_hits = ctr_[1];
  rec_.work.probe_misses = ctr_[2];
  for (const long long e : lvl_enum_) rec_.work.enumerated += e;
  rec_.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - wall_t0)
                     .count();
  if (profiling) {
    // Host half of the lvl_ns ABI (docs/CODEGEN.md): compensate each
    // level's sampled bracket time, extrapolate to all invocations,
    // enforce that inclusive time never exceeds the parent's, and commit
    // self = incl[d] - incl[d+1] under the emitter's drain-kind
    // attribution. The raw slots carry the derived values, so the
    // self/inclusive invariant holds by construction for this engine.
    const int L = static_cast<int>(
        std::min(emission_.num_levels,
                 static_cast<std::size_t>(support::kProfileMaxLevels)));
    const long long timer = support::profile_timer_cost_ns();
    long long incl[support::kProfileMaxLevels] = {};
    for (int d = 0; d < L; ++d) {
      const long long raw = lvl_ns_[3 * static_cast<std::size_t>(d)];
      const long long samp = lvl_ns_[3 * static_cast<std::size_t>(d) + 1];
      if (samp <= 0) continue;
      const long long comp = std::max(0LL, raw - samp * timer);
      const long long invocations =
          d == 0 ? 1 : lvl_prod_[static_cast<std::size_t>(d - 1)];
      incl[d] = static_cast<long long>(static_cast<double>(comp) /
                                       static_cast<double>(samp) *
                                       static_cast<double>(invocations));
    }
    incl[0] = std::min(incl[0], rec_.wall_ns);
    for (int d = 1; d < L; ++d) incl[d] = std::min(incl[d], incl[d - 1]);
    support::ProfileFlush f;
    f.levels = L;
    f.wall_ns = rec_.wall_ns;
    for (int d = 0; d < L; ++d) {
      const int kind = emission_.level_kinds[static_cast<std::size_t>(d)];
      const long long self = incl[d] - (d + 1 < L ? incl[d + 1] : 0);
      f.self_ns[d][kind] = self;
      f.raw_ns[d][kind] = self;
      f.raw_incl_ns[d] = incl[d];
      f.samples[d][kind] = lvl_ns_[3 * static_cast<std::size_t>(d) + 1];
      f.work[d][kind] = lvl_prod_[static_cast<std::size_t>(d)];
    }
    lp_.sink->commit(rec_, &f);
  } else {
    lp_.sink->commit(rec_);
  }
  if (st) {
    st->tuples = ctr_[0];
    st->levels.assign(emission_.num_levels, LevelRunStats{});
    for (std::size_t d = 0; d < emission_.num_levels; ++d) {
      st->levels[d].enumerated = lvl_enum_[d];
      st->levels[d].produced = lvl_prod_[d];
    }
  }
  if (tracing) {
    const double t1 = support::trace_now_us();
    detail::emit_join_spans(*lp_.plan, *st, t0, t1);
    span.reset();
  }
}

}  // namespace bernoulli::compiler
