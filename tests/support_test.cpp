#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <string>

#include "support/error.hpp"
#include "support/json_reader.hpp"
#include "support/rng.hpp"
#include "support/text_table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace bernoulli {
namespace {

TEST(Error, CheckThrowsWithLocation) {
  try {
    BERNOULLI_CHECK_MSG(1 == 2, "one is not " << 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(BERNOULLI_CHECK(2 + 2 == 4));
}

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.next_below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  SplitMix64 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRangeRespected) {
  SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double(-2.0, 3.0);
    EXPECT_GE(d, -2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"Name", "MFlops"});
  t.new_row();
  t.add("small");
  t.add(123.456, 1);
  t.new_row();
  t.add("a-very-long-name");
  t.add(7.0, 1);
  std::string out = t.str();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("123.5"), std::string::npos);
  EXPECT_NE(out.find("a-very-long-name"), std::string::npos);
  // Every line has the same length (alignment invariant).
  std::size_t prev = std::string::npos;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t nl = out.find('\n', pos);
    std::size_t len = nl - pos;
    if (prev != std::string::npos) { EXPECT_EQ(len, prev); }
    prev = len;
    pos = nl + 1;
  }
}

TEST(TextTable, RejectsOverfullRow) {
  TextTable t({"A"});
  t.new_row();
  t.add("x");
  EXPECT_THROW(t.add("y"), Error);
}

// Where in the input did the parser give up? Every malformed document
// must be rejected with a 1-based line/column position pointing at the
// offending byte — the analysis tools parse user-supplied report/trace
// files, so "JSON parse error" alone is not actionable.
TEST(JsonReader, MalformedInputsReportLineAndColumn) {
  struct Case {
    const char* label;
    const char* text;
    const char* where;  // expected "line L column C" substring
  };
  const Case cases[] = {
      {"truncated object", "{\"a\": 1,", "line 1 column 9"},
      {"truncated array", "[1, 2", "line 1 column 6"},
      {"truncated string", "\"abc", "line 1 column 5"},
      {"bad escape", "\"a\\q\"", "line 1 column 4"},
      {"bare control char", "\"a\tb\"", "line 1 column 3"},
      {"trailing garbage", "{\"a\": 1} x", "line 1 column 10"},
      {"missing colon", "{\"a\" 1}", "line 1 column 6"},
      {"missing comma", "[1 2]", "line 1 column 4"},
      {"leading zero", "01", "line 1 column 2"},
      {"lone minus", "-", "line 1 column 2"},
      {"bad literal", "tru", "line 1 column 1"},
      {"empty input", "", "line 1 column 1"},
      {"error on later line", "{\n  \"a\": 1,\n  \"b\": }\n}",
       "line 3 column 8"},
      // \uXXXX surrogate handling: every malformed pair shape must be
      // rejected with a position, never silently decoded or crashed on.
      {"lone high surrogate", "\"\\uD83D\"", "line 1 column 8"},
      {"high surrogate at EOF", "\"\\uD83D", "line 1 column 8"},
      {"low surrogate first", "\"\\uDC00\"", "line 1 column 8"},
      {"truncated \\u hex at EOF", "\"\\u12", "line 1 column 4"},
      {"high surrogate with bad low", "\"\\uD83D\\u0041\"",
       "line 1 column 14"},
      {"high surrogate then literal", "\"\\uD800ab\"", "line 1 column 8"},
  };
  for (const Case& c : cases) {
    try {
      (void)support::json_parse(c.text);
      FAIL() << c.label << ": expected a parse error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("JSON parse error"), std::string::npos) << c.label;
      EXPECT_NE(what.find(c.where), std::string::npos)
          << c.label << ": got \"" << what << '"';
    }
  }
}

TEST(JsonReader, WellFormedInputStillParses) {
  support::JsonValue v = support::json_parse(
      "{\"s\": \"a\\u0041b\", \"n\": [-1.5e2, 0], \"t\": true, "
      "\"nothing\": null}");
  EXPECT_EQ(v.find("s")->as_string(), "aAb");
  EXPECT_EQ(v.find("n")->items[0].as_number(), -150.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("nothing")->type, support::JsonValue::Type::kNull);
}

// Back-to-back jobs are the pool's hard case: a worker that wakes late
// for job N must not pull a slot after job N completed, or it would
// invoke job N's destroyed body with job N+1's slot (a use-after-scope
// the linked executor's bench loop hit in production) and corrupt job
// N+1's completion count. Hammer many short jobs with uneven slot work
// and assert every slot of every job ran exactly once.
TEST(ThreadPool, BackToBackJobsRunEverySlotExactlyOnce) {
  support::ThreadPool pool(4);
  constexpr int kJobs = 200;
  constexpr int kSlots = 8;
  for (int j = 0; j < kJobs; ++j) {
    std::array<std::atomic<int>, kSlots> ran{};
    pool.run_slots(kSlots, [&](int slot) {
      // Uneven work so slot hand-out interleaves differently per job.
      volatile double sink = 0;
      for (int i = 0; i < (slot % 3) * 500; ++i) sink = sink + 1.0;
      ran[static_cast<std::size_t>(slot)].fetch_add(1);
    });
    for (int s = 0; s < kSlots; ++s)
      ASSERT_EQ(ran[static_cast<std::size_t>(s)].load(), 1)
          << "job " << j << " slot " << s;
  }
}

TEST(ThreadPool, PropagatesFirstBodyException) {
  support::ThreadPool pool(2);
  EXPECT_THROW(pool.run_slots(4,
                              [&](int slot) {
                                if (slot == 2) throw Error("slot two");
                              }),
               Error);
  // The pool stays usable after a throwing job.
  std::atomic<int> n{0};
  pool.run_slots(3, [&](int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 3);
}

TEST(Timer, WallTimeAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Timer, ThreadCpuTimeAdvancesUnderWork) {
  ThreadCpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 5000000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

}  // namespace
}  // namespace bernoulli
