// Virtual-clock accounting modes: manual compute, explicit charges, solo
// sections — the measurement machinery the calibrated benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "runtime/machine.hpp"
#include "support/timer.hpp"

namespace bernoulli::runtime {
namespace {

void burn_cpu(int loops) {
  volatile double sink = 0;
  for (int i = 0; i < loops; ++i) sink = sink + 1.0;
}

TEST(Modes, ManualComputeIgnoresCpuTime) {
  Machine m(1);
  auto reports = m.run([&](Process& p) {
    p.set_manual_compute(true);
    burn_cpu(5000000);  // must NOT appear on the virtual clock
    p.charge_seconds(0.25);
  });
  EXPECT_GE(reports[0].virtual_time, 0.25);
  EXPECT_LT(reports[0].virtual_time, 0.26);
}

TEST(Modes, ManualModeStillChargesMessages) {
  CostModel cm;
  cm.latency_s = 0.125;
  cm.bytes_per_s = 1e12;
  Machine m(2, cm);
  auto reports = m.run([&](Process& p) {
    p.set_manual_compute(true);
    if (p.rank() == 0)
      p.send_value<int>(1, 1, 7);
    else
      (void)p.recv_value<int>(0, 1);
  });
  EXPECT_GE(reports[0].virtual_time, 0.125);   // sender latency
  EXPECT_GE(reports[1].virtual_time, 0.25);    // arrival = send + charge
}

TEST(Modes, TogglingBackResumesCpuAccounting) {
  Machine m(1);
  auto reports = m.run([&](Process& p) {
    p.set_manual_compute(true);
    burn_cpu(3000000);
    p.set_manual_compute(false);
    burn_cpu(3000000);  // counted
  });
  EXPECT_GT(reports[0].virtual_time, 0.0);
}

TEST(Modes, SoloKeepsClockSemantics) {
  const int P = 4;
  Machine m(P);
  std::vector<double> vt(P, 0.0);
  m.run([&](Process& p) {
    p.solo([&] { burn_cpu(2000000); });
    vt[static_cast<std::size_t>(p.rank())] = p.virtual_time();
  });
  // Every rank's clock reflects roughly its own solo work — similar across
  // ranks, all positive, none wildly larger (on a host with fewer than P
  // hardware threads the sections serialize, and waiting for the lock is
  // off the clock).
  double mn = 1e30, mx = 0;
  for (double v : vt) {
    EXPECT_GT(v, 0.0);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_LT(mx, 50 * mn) << "lock waiting leaked into a virtual clock";
}

// Counts the ranks inside a solo section at once.
struct SoloOccupancy {
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};

  void enter() {
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  void leave() { inside.fetch_sub(1); }
};

unsigned hardware_threads() {
  return std::max(1U, std::thread::hardware_concurrency());
}

TEST(Modes, SoloRunsSideBySideWhenRanksFitTheHost) {
  if (hardware_threads() < 2) GTEST_SKIP() << "needs 2 hardware threads";
  const int P = 2;
  Machine m(P);
  SoloOccupancy occ;
  std::vector<double> own(P, 0.0);
  std::vector<double> booked(P, 0.0);
  m.run([&](Process& p) {
    const double before = p.virtual_time();
    p.solo([&] {
      occ.enter();
      ThreadCpuTimer t;
      // Wait (bounded) for the other rank to enter too. Under a
      // machine-wide lock it never could, and the spin times out.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (occ.peak.load() < P &&
             std::chrono::steady_clock::now() < deadline) {
      }
      own[static_cast<std::size_t>(p.rank())] = t.seconds();
      occ.leave();
    });
    booked[static_cast<std::size_t>(p.rank())] = p.virtual_time() - before;
  });
  EXPECT_EQ(occ.peak.load(), P) << "ranks with a core each were serialized";
  // The spin is the rank's own compute, so it is on its clock — and
  // nothing else is.
  for (std::size_t k = 0; k < own.size(); ++k) {
    EXPECT_GE(booked[k], own[k]);
    EXPECT_LT(booked[k], 2.0 * own[k] + 0.01) << "rank " << k;
  }
}

TEST(Modes, SoloSerializesWhenRanksOutnumberTheHost) {
  const unsigned hw = hardware_threads();
  if (hw > 256) GTEST_SKIP() << "too many hardware threads to oversubscribe";
  const int P = static_cast<int>(hw) + 1;
  Machine m(P);
  SoloOccupancy occ;
  std::vector<double> own(static_cast<std::size_t>(P), 0.0);
  std::vector<double> booked(static_cast<std::size_t>(P), 0.0);
  m.run([&](Process& p) {
    const double before = p.virtual_time();
    p.solo([&] {
      occ.enter();
      ThreadCpuTimer t;
      burn_cpu(2000000);
      own[static_cast<std::size_t>(p.rank())] = t.seconds();
      occ.leave();
    });
    booked[static_cast<std::size_t>(p.rank())] = p.virtual_time() - before;
  });
  EXPECT_EQ(occ.peak.load(), 1) << "two ranks were inside solo at once";
  // Each clock books the rank's own section, not the P - 1 sections it
  // queued behind (a rank that waited for all of them would book ~P times
  // its own work).
  for (std::size_t k = 0; k < own.size(); ++k) {
    EXPECT_GE(booked[k], own[k]);
    EXPECT_LT(booked[k], 2.0 * own[k] + 0.01) << "rank " << k;
  }
}

TEST(Modes, SpinningWaitsBookNoCompute) {
  // Rank 0 sleeps well past the spin budget before it sends and again
  // before it joins an allreduce, so rank 1 spins for the whole budget and
  // then blocks, twice. Neither the spin's CPU nor the wait may reach rank
  // 1's clock: it ends at the message's arrival, then at the slower
  // rank's entry plus the modeled tree round.
  if (hardware_threads() < 2) GTEST_SKIP() << "needs 2 hardware threads";
  CostModel cm;
  Machine m(2, cm);
  ASSERT_FALSE(m.oversubscribed());
  double entered = 0, sent_at = 0, received = 0, slowest = 0, reduced = 0;
  m.run([&](Process& p) {
    if (p.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      p.send_value<double>(1, 1, p.virtual_time());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      (void)p.allreduce_max(p.virtual_time());
    } else {
      entered = p.virtual_time();
      // recv_bytes itself, not a typed wrapper: the wait is what is tested.
      const std::vector<std::byte> raw = p.recv_bytes(0, 1);
      received = p.virtual_time();
      std::memcpy(&sent_at, raw.data(), sizeof sent_at);
      slowest = p.allreduce_max(p.virtual_time());
      reduced = p.virtual_time();
    }
  });
  const double arrival = sent_at + cm.latency_s + cm.charge(sizeof(double));
  const double budget =
      std::chrono::duration<double>(Machine::kSpinBudget).count();
  EXPECT_GE(received, std::max(entered, arrival) - 1e-9);
  EXPECT_LT(received - std::max(entered, arrival), budget / 2)
      << "the receive's spin was booked as compute";
  const double tree_round = cm.charge(sizeof(double));  // P = 2: one round
  EXPECT_GE(reduced, slowest + tree_round - 1e-9);
  EXPECT_LT(reduced - (slowest + tree_round), budget / 2)
      << "the allreduce's spin was booked as compute";
}

TEST(Modes, OversubscribedMachineBlocksAndCompletes) {
  // More ranks than hardware threads: waits skip the spin and block at
  // once. Ring exchanges and allreduce rounds must still complete.
  const unsigned hw = hardware_threads();
  if (hw > 256) GTEST_SKIP() << "too many hardware threads to oversubscribe";
  const int P = static_cast<int>(hw) + 1;
  Machine m(P);
  ASSERT_TRUE(m.oversubscribed());
  EXPECT_EQ(Machine(1).oversubscribed(), false);
  std::vector<long long> ring(static_cast<std::size_t>(P), 0);
  std::vector<double> sums(static_cast<std::size_t>(P), 0.0);
  m.run([&](Process& p) {
    const int right = (p.rank() + 1) % P;
    const int left = (p.rank() + P - 1) % P;
    long long carried = p.rank();
    double total = 0;
    for (int round = 0; round < 20; ++round) {
      p.send_value<long long>(right, round, carried);
      carried = p.recv_value<long long>(left, round);
      total += p.allreduce_sum(static_cast<double>(round));
    }
    ring[static_cast<std::size_t>(p.rank())] = carried;
    sums[static_cast<std::size_t>(p.rank())] = total;
  });
  // After 20 hops each rank holds the value of the rank 20 places left.
  for (int k = 0; k < P; ++k) {
    EXPECT_EQ(ring[static_cast<std::size_t>(k)], ((k - 20) % P + P) % P);
    EXPECT_EQ(sums[static_cast<std::size_t>(k)], 190.0 * P);
  }
}

TEST(Modes, ChargeSecondsRejectsNegative) {
  Machine m(1);
  EXPECT_THROW(m.run([&](Process& p) { p.charge_seconds(-1.0); }), Error);
}

TEST(Modes, CommOperationsOwnCpuIsDiscarded) {
  // A rank that only sends/receives large buffers accrues (almost) no
  // compute time beyond the modeled charges.
  CostModel cm;
  cm.latency_s = 0.0;
  cm.bytes_per_s = 1e15;  // negligible transfer charge
  Machine m(2, cm);
  auto reports = m.run([&](Process& p) {
    std::vector<double> payload(1 << 16, 1.0);
    for (int k = 0; k < 20; ++k) {
      if (p.rank() == 0) {
        p.send<double>(1, k, payload);
      } else {
        (void)p.recv<double>(0, k);
      }
    }
  });
  // Copying 20 x 512KiB through mailboxes costs real CPU; virtually it
  // must be (near) free.
  EXPECT_LT(reports[0].virtual_time, 0.05);
  EXPECT_LT(reports[1].virtual_time, 0.05);
}

}  // namespace
}  // namespace bernoulli::runtime
