// Randomized cross-checks ("fuzz" sweeps with fixed seeds): random
// point-to-point message patterns on the simulated machine vs a
// sequential reference of the same dataflow, and random COO duplicates vs
// a dense accumulation. Random matvec configurations through the compiler
// (storage, shape, planner options, every engine rung) are the seeded
// harness in exec_linked_test.cpp.
#include <gtest/gtest.h>

#include "formats/formats.hpp"
#include "runtime/machine.hpp"
#include "support/rng.hpp"

namespace bernoulli {
namespace {

using formats::Coo;
using formats::TripletBuilder;

TEST(Fuzz, RandomMessagePatterns) {
  SplitMix64 seeder(0xCAFE);
  for (int round = 0; round < 10; ++round) {
    const int P = static_cast<int>(2 + seeder.next_below(6));
    const std::uint64_t seed = seeder.next();

    // Plan a random dataflow up front: each rank sends a few tagged
    // payloads to random peers; receivers know exactly what to expect.
    struct Msg {
      int src, dst, tag;
      index_t payload;
    };
    std::vector<Msg> messages;
    SplitMix64 plan(seed);
    for (int s = 0; s < P; ++s) {
      int count = static_cast<int>(plan.next_below(5));
      for (int k = 0; k < count; ++k) {
        int dst = static_cast<int>(plan.next_below(static_cast<std::uint64_t>(P)));
        int tag = 100 + static_cast<int>(messages.size());  // unique tags
        messages.push_back({s, dst, tag,
                            static_cast<index_t>(plan.next_below(1 << 20))});
      }
    }

    runtime::Machine machine(P);
    std::vector<index_t> received_sum(static_cast<std::size_t>(P), 0);
    machine.run([&](runtime::Process& p) {
      for (const Msg& m : messages)
        if (m.src == p.rank()) p.send_value<index_t>(m.dst, m.tag, m.payload);
      index_t sum = 0;
      for (const Msg& m : messages)
        if (m.dst == p.rank()) sum += p.recv_value<index_t>(m.src, m.tag);
      received_sum[static_cast<std::size_t>(p.rank())] = sum;
    });

    std::vector<index_t> expect(static_cast<std::size_t>(P), 0);
    for (const Msg& m : messages)
      expect[static_cast<std::size_t>(m.dst)] += m.payload;
    EXPECT_EQ(received_sum, expect) << "round " << round << " P=" << P;
  }
}

TEST(Fuzz, CooBuilderRandomDuplicates) {
  SplitMix64 rng(0xBEEF);
  for (int round = 0; round < 30; ++round) {
    const auto n = static_cast<index_t>(1 + rng.next_below(12));
    formats::Dense ref(n, n);
    TripletBuilder tb(n, n);
    const auto adds = rng.next_below(120);
    for (std::uint64_t k = 0; k < adds; ++k) {
      index_t i = rng.next_index(n), j = rng.next_index(n);
      value_t v = rng.next_double(-1, 1);
      tb.add(i, j, v);
      ref.at(i, j) += v;
    }
    Coo a = std::move(tb).build();
    a.validate();
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        ASSERT_NEAR(a.at(i, j), ref.at(i, j), 1e-12);
  }
}

}  // namespace
}  // namespace bernoulli
