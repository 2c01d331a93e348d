// Unit tests for the observability substrate: the JSON writer's encoding
// contract and the registry's count/seconds semantics (identity, one kind
// per name, snapshot/reset, phase tagging, thread-local phase isolation).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "support/error.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {
namespace {

TEST(JsonWriter, CompactDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("A");
  w.key("n").value(42);
  w.key("xs").begin_array().value(1).value(2.5).value(true).end_array();
  w.key("nested").begin_object().key("ok").value(false).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"A\",\"n\":42,\"xs\":[1,2.5,true],"
            "\"nested\":{\"ok\":false}}");
}

TEST(JsonWriter, PrettyPrintIndents) {
  JsonWriter w(2);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.value(std::string_view("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // Lock the full U+0000..U+001F range: short forms where RFC 8259 names
  // one, \u00XX otherwise — so Perfetto (a strict parser) accepts traces
  // whose span names carry arbitrary bytes.
  for (int c = 0; c < 0x20; ++c) {
    std::string s(1, static_cast<char>(c));
    JsonWriter w;
    w.value(std::string_view(s));
    std::string expect;
    switch (c) {
      case '\b': expect = "\"\\b\""; break;
      case '\f': expect = "\"\\f\""; break;
      case '\n': expect = "\"\\n\""; break;
      case '\r': expect = "\"\\r\""; break;
      case '\t': expect = "\"\\t\""; break;
      default: {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "\"\\u%04x\"", c);
        expect = buf;
      }
    }
    EXPECT_EQ(w.str(), expect) << "control char " << c;
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  const double cases[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (double v : cases) {
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), "null");
  }
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  {
    JsonWriter w;
    w.value(0.1);
    EXPECT_EQ(w.str(), "0.1");
  }
  {
    JsonWriter w;
    w.value(3.0);
    EXPECT_EQ(w.str(), "3");
  }
  {
    JsonWriter w;
    w.value(1.0 / 3.0);
    EXPECT_EQ(std::stod(w.str()), 1.0 / 3.0);
  }
  {
    JsonWriter w;
    w.value(std::numeric_limits<double>::infinity());
    EXPECT_EQ(w.str(), "null");
  }
}

TEST(JsonWriter, RawSplicesSubdocument) {
  JsonWriter inner;
  inner.begin_object();
  inner.key("x").value(1);
  inner.end_object();
  JsonWriter w;
  w.begin_object();
  w.key("sub").raw(inner.str());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"sub\":{\"x\":1}}");
}

TEST(JsonWriter, MisuseTrips) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), Error);   // value without key
  EXPECT_THROW(w.str(), Error);      // unclosed container
}

TEST(Counters, SameNameSameCounter) {
  Counter& a = counter("test.same_name");
  Counter& b = counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7);
}

TEST(Counters, SnapshotAndReset) {
  counter("test.snap").reset();
  counter("test.snap").add(5);
  time_counter("test.snap_time").reset();
  time_counter("test.snap_time").add(0.25);
  auto snap = metrics_snapshot();
  EXPECT_EQ(snap.counts["test.snap"], 5);
  EXPECT_DOUBLE_EQ(snap.seconds["test.snap_time"], 0.25);

  metrics_reset();
  snap = metrics_snapshot();
  EXPECT_EQ(snap.counts["test.snap"], 0);
  EXPECT_DOUBLE_EQ(snap.seconds["test.snap_time"], 0.0);
}

TEST(Counters, NameBelongsToOneKind) {
  counter("test.one_kind").add(1);
  EXPECT_THROW(histogram("test.one_kind"), Error);
  EXPECT_THROW(time_counter("test.one_kind"), Error);
  EXPECT_EQ(counter("test.one_kind").value(), 1);
}

TEST(Counters, PhaseScopingRestores) {
  // Each scope books through the handles it resolved when it opened.
  const long long executor0 = counter("comm.executor.exchanges").value();
  const long long inspector0 = counter("comm.inspector.exchanges").value();
  EXPECT_EQ(counter_phase(), "main");
  {
    PhaseScope inspector("inspector");
    EXPECT_EQ(counter_phase(), "inspector");
    {
      PhaseScope executor("executor");
      EXPECT_EQ(counter_phase(), "executor");
      phase_counters().exchanges.add(1);
    }
    EXPECT_EQ(counter_phase(), "inspector");
    phase_counters().exchanges.add(1);
  }
  EXPECT_EQ(counter_phase(), "main");
  EXPECT_EQ(counter("comm.executor.exchanges").value() - executor0, 1);
  EXPECT_EQ(counter("comm.inspector.exchanges").value() - inspector0, 1);
}

TEST(Counters, PhaseIsThreadLocal) {
  PhaseScope scoped("executor");
  std::string other_thread_phase;
  std::thread t([&] { other_thread_phase = counter_phase(); });
  t.join();
  // A fresh thread starts at "main" regardless of this thread's scope —
  // this is what lets each simulated rank carry its own phase tag.
  EXPECT_EQ(other_thread_phase, "main");
  EXPECT_EQ(counter_phase(), "executor");
}

TEST(Counters, PhaseScopeRestoresOnException) {
  EXPECT_EQ(counter_phase(), "main");
  try {
    PhaseScope inspector("inspector");
    throw std::runtime_error("inspector blew up");
  } catch (const std::runtime_error&) {
  }
  // The whole point of RAII phase scoping: an exception mid-phase must
  // not leave later counters mis-tagged.
  EXPECT_EQ(counter_phase(), "main");
}

TEST(Counters, JsonRendering) {
  metrics_reset();
  counter("test.render").add(9);
  time_counter("test.render_time").add(1.5);
  const JsonValue doc = json_parse(metrics_json());
  EXPECT_EQ(doc.find("schema")->as_string(), "bernoulli.metrics.v2");
  EXPECT_EQ(doc.find("counts")->find("test.render")->as_number(), 9);
  EXPECT_EQ(doc.find("seconds")->find("test.render_time")->as_number(), 1.5);
}

}  // namespace
}  // namespace bernoulli::support
