// Simulated machine: message semantics, collectives, virtual-clock
// happens-before, and statistics.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "runtime/machine.hpp"
#include "support/error.hpp"

namespace bernoulli::runtime {
namespace {

TEST(Machine, PingPong) {
  Machine m(2);
  std::vector<int> got;
  m.run([&](Process& p) {
    if (p.rank() == 0) {
      std::vector<int> data{1, 2, 3};
      p.send<int>(1, 7, data);
      auto back = p.recv<int>(1, 8);
      got = back;
    } else {
      auto data = p.recv<int>(0, 7);
      for (int& v : data) v *= 10;
      p.send<int>(0, 8, data);
    }
  });
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Machine, TagAndSourceMatching) {
  // Two messages from the same source with different tags must be
  // received by tag, regardless of send order.
  Machine m(2);
  int first = 0, second = 0;
  m.run([&](Process& p) {
    if (p.rank() == 0) {
      p.send_value<int>(1, /*tag=*/5, 55);
      p.send_value<int>(1, /*tag=*/4, 44);
    } else {
      first = p.recv_value<int>(0, 4);
      second = p.recv_value<int>(0, 5);
    }
  });
  EXPECT_EQ(first, 44);
  EXPECT_EQ(second, 55);
}

TEST(Machine, SameTagIsFifo) {
  Machine m(2);
  std::vector<int> order;
  m.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int k = 0; k < 5; ++k) p.send_value<int>(1, 1, k);
    } else {
      for (int k = 0; k < 5; ++k) order.push_back(p.recv_value<int>(0, 1));
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Machine, SelfSendWorks) {
  Machine m(1);
  int got = 0;
  m.run([&](Process& p) {
    p.send_value<int>(0, 3, 42);
    got = p.recv_value<int>(0, 3);
  });
  EXPECT_EQ(got, 42);
}

TEST(Machine, AllreduceSum) {
  Machine m(8);
  std::vector<double> results(8, 0.0);
  m.run([&](Process& p) {
    results[static_cast<std::size_t>(p.rank())] =
        p.allreduce_sum(static_cast<double>(p.rank() + 1));
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 36.0);  // 1+..+8
}

TEST(Machine, AllreduceSumAddsInRankOrder) {
  // Floating-point addition does not associate: these four values sum to 1
  // in rank order but to 0 in reverse. Ranks arrive in reverse (rank 0
  // last), and every rank must still read the rank-order sum.
  const std::vector<double> values{1e16, 1.0, -1e16, 1.0};
  const int P = static_cast<int>(values.size());
  double rank_order = 0.0;
  for (double v : values) rank_order += v;
  double reverse_order = 0.0;
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    reverse_order += *it;
  ASSERT_NE(rank_order, reverse_order);

  Machine m(P);
  std::vector<double> results(values.size(), 0.0);
  m.run([&](Process& p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * (P - p.rank())));
    const auto k = static_cast<std::size_t>(p.rank());
    results[k] = p.allreduce_sum(values[k]);
  });
  for (double r : results) EXPECT_EQ(r, rank_order);
}

TEST(Machine, AllreduceMax) {
  Machine m(5);
  std::vector<double> results(5, 0.0);
  m.run([&](Process& p) {
    results[static_cast<std::size_t>(p.rank())] =
        p.allreduce_max(static_cast<double>((p.rank() * 7) % 5));
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 4.0);
}

TEST(Machine, RepeatedCollectivesStayInSync) {
  Machine m(4);
  std::vector<double> sums(4, 0.0);
  m.run([&](Process& p) {
    double acc = 0;
    for (int round = 0; round < 50; ++round)
      acc += p.allreduce_sum(static_cast<double>(round + p.rank()));
    sums[static_cast<std::size_t>(p.rank())] = acc;
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, sums[0]);
}

TEST(Machine, Alltoallv) {
  const int P = 4;
  Machine m(P);
  std::vector<std::vector<std::vector<int>>> received(P);
  m.run([&](Process& p) {
    std::vector<std::vector<int>> out(P);
    for (int q = 0; q < P; ++q) out[static_cast<std::size_t>(q)] = {p.rank() * 10 + q};
    received[static_cast<std::size_t>(p.rank())] = p.alltoallv(out, 9);
  });
  for (int me = 0; me < P; ++me)
    for (int q = 0; q < P; ++q)
      EXPECT_EQ(received[static_cast<std::size_t>(me)][static_cast<std::size_t>(q)],
                (std::vector<int>{q * 10 + me}));
}

TEST(Machine, Allgatherv) {
  const int P = 3;
  Machine m(P);
  std::vector<std::vector<std::vector<index_t>>> gathered(P);
  m.run([&](Process& p) {
    std::vector<index_t> mine(static_cast<std::size_t>(p.rank() + 1),
                              static_cast<index_t>(p.rank()));
    gathered[static_cast<std::size_t>(p.rank())] =
        p.allgatherv<index_t>(mine, 2);
  });
  for (int me = 0; me < P; ++me)
    for (int q = 0; q < P; ++q)
      EXPECT_EQ(gathered[static_cast<std::size_t>(me)][static_cast<std::size_t>(q)].size(),
                static_cast<std::size_t>(q + 1));
}

TEST(Machine, VirtualTimeHappensBefore) {
  // Rank 1 receives a message sent after rank 0 burned compute time; its
  // virtual clock must be at least rank 0's send-time + transfer.
  Machine m(2);
  std::vector<double> vt(2, 0.0);
  m.run([&](Process& p) {
    if (p.rank() == 0) {
      volatile double sink = 0;
      for (int i = 0; i < 3000000; ++i) sink = sink + 1.0;
      p.charge_seconds(1.0);  // plus explicit modeled work
      std::vector<double> payload(1000, 1.0);
      p.send<double>(1, 1, payload);
      vt[0] = p.virtual_time();
    } else {
      (void)p.recv<double>(0, 1);
      vt[1] = p.virtual_time();
    }
  });
  EXPECT_GE(vt[0], 1.0);
  EXPECT_GE(vt[1], 1.0);  // inherited through the message
}

TEST(Machine, MessageCostCharged) {
  CostModel cm;
  cm.latency_s = 0.25;
  cm.bytes_per_s = 1e9;
  Machine m(2, cm);
  std::vector<double> vt(2, 0.0);
  auto reports = m.run([&](Process& p) {
    if (p.rank() == 0)
      p.send_value<int>(1, 1, 5);
    else
      (void)p.recv_value<int>(0, 1);
  });
  // Sender pays latency; receiver inherits arrival = send + charge.
  EXPECT_GE(reports[0].virtual_time, 0.25);
  EXPECT_GE(reports[1].virtual_time, 0.5);
}

TEST(Machine, StatsCountMessagesAndBytes) {
  Machine m(2);
  auto reports = m.run([&](Process& p) {
    if (p.rank() == 0) {
      std::vector<double> payload(10, 0.0);
      p.send<double>(1, 1, payload);
      p.send<double>(1, 2, payload);
    } else {
      (void)p.recv<double>(0, 1);
      (void)p.recv<double>(0, 2);
    }
    p.barrier();
  });
  EXPECT_EQ(reports[0].stats.messages, 2);
  EXPECT_EQ(reports[0].stats.bytes, 160);
  EXPECT_EQ(reports[1].stats.messages, 0);
  EXPECT_GE(reports[0].stats.collectives, 1);
}

TEST(Machine, SelfSendsAreFree) {
  Machine m(1);
  auto reports = m.run([&](Process& p) {
    std::vector<double> payload(1000, 0.0);
    p.send<double>(0, 1, payload);
    (void)p.recv<double>(0, 1);
  });
  EXPECT_EQ(reports[0].stats.messages, 0);
  EXPECT_EQ(reports[0].stats.bytes, 0);
}

TEST(Machine, ExceptionPropagates) {
  Machine m(2);
  EXPECT_THROW(m.run([&](Process& p) {
                 if (p.rank() == 1) throw Error("rank 1 failed");
               }),
               Error);
}

TEST(Machine, ManyRanks) {
  // 64 threads on one core: the Table-2 configuration must at least be
  // functionally sound.
  const int P = 64;
  Machine m(P);
  std::vector<double> results(P, 0.0);
  m.run([&](Process& p) {
    // Ring shift: send to the right, receive from the left.
    p.send_value<double>((p.rank() + 1) % P, 1, static_cast<double>(p.rank()));
    double left = p.recv_value<double>((p.rank() + P - 1) % P, 1);
    results[static_cast<std::size_t>(p.rank())] = left;
  });
  for (int r = 0; r < P; ++r)
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)],
                     static_cast<double>((r + P - 1) % P));
}

}  // namespace
}  // namespace bernoulli::runtime
