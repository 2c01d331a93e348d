// Named fallbacks of the specialized backend: when the kernel cannot be
// built, ok() is false and note() says why in words a user can act on,
// and the linked engine still serves the statement.
//
// The toolchain is probed once per process, so the no-toolchain case runs
// in a process of its own: ctest registers it as specialize_nocc_test,
// which runs this binary's NoToolchain.* tests with PATH=/nonexistent
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/formats.hpp"
#include "support/dynlib.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Csr;
namespace fs = std::filesystem;

constexpr const char* kNoToolchainPath = "/nonexistent";

bool in_no_toolchain_process() {
  const char* path = std::getenv("PATH");
  return path != nullptr && std::string(path) == kNoToolchainPath;
}

// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// y += A x over a small random CSR matrix, linked and ready to specialize.
class CsrSpmv {
 public:
  CsrSpmv() {
    SplitMix64 rng(5);
    formats::TripletBuilder tb(kRows, kCols);
    for (int k = 0; k < 90; ++k)
      tb.add(rng.next_index(kRows), rng.next_index(kCols),
             rng.next_double(-1, 1));
    a_ = Csr::from_coo(std::move(tb).build());
    x_.resize(kCols);
    for (auto& v : x_) v = rng.next_double(-1, 1);
    y_.assign(kRows, 0.0);
    b_.bind_csr("A", a_);
    b_.bind_dense_vector("X", ConstVectorView(x_));
    b_.bind_dense_vector("Y", VectorView(y_));
    k_.emplace(compile(LoopNest{{{"i", kRows}, {"j", kCols}},
                                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}},
                       b_));
    lp_ = link_plan(k_->plan(), k_->query());
    mac_ = link_mac(k_->query(), 1, {2, 3}, 1.0);
  }

  const LinkedPlan& lp() const { return lp_; }
  const LinkedMac& mac() const { return mac_; }

  // y = A x on the linked engine.
  Vector run_linked() {
    std::fill(y_.begin(), y_.end(), 0.0);
    LinkedRunner runner(link_plan(k_->plan(), k_->query()));
    runner.run(mac_);
    return y_;
  }

  // y = A x through a loaded specialized kernel.
  Vector run_specialized(SpecializedKernel& spec) {
    std::fill(y_.begin(), y_.end(), 0.0);
    spec.run();
    return y_;
  }

  // y = A x accumulated entry by entry in storage order — the order every
  // engine adds in, so the result is bitwise comparable.
  Vector reference() const {
    Vector y(kRows, 0.0);
    for (index_t i = 0; i < a_.rows(); ++i) {
      auto cols = a_.row_cols(i);
      auto vals = a_.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k)
        y[static_cast<std::size_t>(i)] +=
            vals[k] * x_[static_cast<std::size_t>(cols[k])];
    }
    return y;
  }

 private:
  static constexpr index_t kRows = 17;
  static constexpr index_t kCols = 21;
  Csr a_;
  Vector x_, y_;
  Bindings b_;
  std::optional<CompiledKernel> k_;
  LinkedPlan lp_;
  LinkedMac mac_;
};

bool no_toolchain(const std::string& note) {
  return note.starts_with("no C toolchain");
}

// A fresh directory under the test temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path d = fs::path(::testing::TempDir()) / name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

TEST(SpecializeFallback, MissingTempRootIsNamed) {
  if (in_no_toolchain_process()) GTEST_SKIP() << "no-toolchain process";
  if (!support::DynLib::available()) GTEST_SKIP() << "no dlopen";
  CsrSpmv s;
  const fs::path root =
      fs::path(::testing::TempDir()) / "bernoulli-missing-root";
  fs::remove_all(root);
  const ScopedEnv tmpdir("TMPDIR", root.string());
  SpecializedKernel spec(s.lp(), s.mac());
  if (no_toolchain(spec.note())) GTEST_SKIP() << spec.note();
  EXPECT_FALSE(spec.ok());
  EXPECT_NE(spec.note().find("temporary-directory root"), std::string::npos)
      << spec.note();
  EXPECT_NE(spec.note().find(root.string()), std::string::npos)
      << spec.note();
}

TEST(SpecializeFallback, RootWithSpacesAndQuotesBuildsBitwise) {
  if (in_no_toolchain_process()) GTEST_SKIP() << "no-toolchain process";
  if (!support::DynLib::available()) GTEST_SKIP() << "no dlopen";
  CsrSpmv s;
  const fs::path root = fresh_dir("bernoulli root 'single' \"double\" $x");
  {
    const ScopedEnv tmpdir("TMPDIR", root.string());
    SpecializedKernel spec(s.lp(), s.mac());
    if (no_toolchain(spec.note())) GTEST_SKIP() << spec.note();
    ASSERT_TRUE(spec.ok()) << spec.note();
    EXPECT_NE(spec.note().find(root.string()), std::string::npos)
        << spec.note();
    const Vector y = s.run_specialized(spec);
    EXPECT_EQ(y, s.run_linked());
    EXPECT_EQ(y, s.reference());
  }
  // The kernel removed its build directory; the root is empty again.
  EXPECT_TRUE(fs::is_empty(root));
  fs::remove_all(root);
}

// Builds one kernel with PATH holding only a `cc` shell script that
// accepts the toolchain probe and then runs `body`; returns ok() and
// note(). The failing-compiler tests run last in this file, so the
// once-per-process toolchain probe has normally seen the real `cc`.
std::pair<bool, std::string> build_with_fake_cc(const CsrSpmv& s,
                                                const std::string& body) {
  const fs::path bin = fresh_dir("bernoulli-fake-cc");
  {
    std::ofstream cc(bin / "cc");
    cc << "#!/bin/sh\n"
       << "[ \"$1\" = --version ] && exit 0\n"
       << body;
  }
  fs::permissions(bin / "cc", fs::perms::owner_all);
  std::pair<bool, std::string> out;
  {
    const ScopedEnv path("PATH", bin.string());
    SpecializedKernel spec(s.lp(), s.mac());
    out = {spec.ok(), spec.note()};
  }
  fs::remove_all(bin);
  return out;
}

TEST(SpecializeFallback, FailedCompileKeepsFirstDiagnostic) {
  if (in_no_toolchain_process()) GTEST_SKIP() << "no-toolchain process";
  if (!support::DynLib::available()) GTEST_SKIP() << "no dlopen";
  CsrSpmv s;
  const std::string first_line =
      "kernel.c:1:1: error: forced failure " + std::string(300, 'x');
  const auto [ok, note] = build_with_fake_cc(
      s, "echo '" + first_line + "' >&2\necho 'second line' >&2\nexit 1\n");
  if (no_toolchain(note)) GTEST_SKIP() << note;
  EXPECT_FALSE(ok);
  // The build directory and its cc.log are gone with the kernel; the note
  // carries the first diagnostic line, capped, and nothing after it.
  EXPECT_TRUE(note.starts_with("cc failed to compile the generated kernel: "
                               "kernel.c:1:1: error: forced failure xxx"))
      << note;
  EXPECT_EQ(note.find("second line"), std::string::npos) << note;
  EXPECT_LT(note.size(), 300U) << note;
}

TEST(SpecializeFallback, UnloadableObjectIsNamed) {
  if (in_no_toolchain_process()) GTEST_SKIP() << "no-toolchain process";
  if (!support::DynLib::available()) GTEST_SKIP() << "no dlopen";
  CsrSpmv s;
  // "Compiles" successfully but writes a file that is no shared object.
  const auto [ok, note] = build_with_fake_cc(
      s,
      "while [ $# -gt 0 ]; do\n"
      "  [ \"$1\" = -o ] && { echo 'not an object' > \"$2\"; exit 0; }\n"
      "  shift\n"
      "done\n"
      "exit 1\n");
  if (no_toolchain(note)) GTEST_SKIP() << note;
  EXPECT_FALSE(ok);
  EXPECT_TRUE(note.starts_with("dlopen failed: ")) << note;
}

TEST(NoToolchain, FallsBackWithNamedNoteAndLinkedStaysBitwise) {
  if (!in_no_toolchain_process())
    GTEST_SKIP() << "runs as specialize_nocc_test with PATH="
                 << kNoToolchainPath;
  CsrSpmv s;
  SpecializedKernel spec(s.lp(), s.mac());
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.note(), "no C toolchain (cc not found)");
  EXPECT_EQ(s.run_linked(), s.reference());
}

}  // namespace
}  // namespace bernoulli::compiler
