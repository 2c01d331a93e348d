// CommSchedule unit tests: exchange semantics, overlap split, validation.
#include <gtest/gtest.h>

#include "spmd/comm.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::spmd {
namespace {

// Two ranks: rank 0 owns x[0..3), rank 1 owns x[3..6). Each needs one
// value from the other.
CommSchedule two_rank_schedule(int me) {
  CommSchedule s;
  s.nprocs = 2;
  s.owned = 3;
  s.ghosts = 1;
  s.send_local.assign(2, {});
  s.recv_count.assign(2, 0);
  s.ghost_base.assign(2, 0);
  int other = 1 - me;
  s.send_local[static_cast<std::size_t>(other)] = {me == 0 ? 2 : 0};
  s.recv_count[static_cast<std::size_t>(other)] = 1;
  s.ghost_base[static_cast<std::size_t>(other)] = 3;
  s.validate();
  return s;
}

TEST(CommSchedule, ExchangeFillsGhosts) {
  runtime::Machine machine(2);
  std::vector<Vector> xs(2);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{10.0 * p.rank() + 0, 10.0 * p.rank() + 1,
                  10.0 * p.rank() + 2, -1.0};
    s.exchange(p, x_full, 5);
    xs[static_cast<std::size_t>(p.rank())] = x_full;
  });
  EXPECT_DOUBLE_EQ(xs[0][3], 10.0);  // rank 1's local offset 0
  EXPECT_DOUBLE_EQ(xs[1][3], 2.0);   // rank 0's local offset 2
}

TEST(CommSchedule, PostCompleteSplitEquivalent) {
  runtime::Machine machine(2);
  std::vector<Vector> xs(2);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{1.0 + p.rank(), 2.0 + p.rank(), 3.0 + p.rank(), -1.0};
    s.post(p, x_full, 6);
    // ... compute would overlap here ...
    s.complete(p, x_full, 6);
    xs[static_cast<std::size_t>(p.rank())] = x_full;
  });
  EXPECT_DOUBLE_EQ(xs[0][3], 2.0);  // rank 1 local 0 = 1.0 + 1
  EXPECT_DOUBLE_EQ(xs[1][3], 3.0);  // rank 0 local 2 = 3.0 + 0
}

TEST(CommSchedule, SizeMismatchNamesSourceTagAndSizes) {
  // Rank 0 sends two values; rank 1's ghost range from rank 0 holds three.
  runtime::Machine machine(2);
  std::string what;
  try {
    machine.run([&](runtime::Process& p) {
      CommSchedule s = two_rank_schedule(p.rank());
      Vector x_full{1.0, 2.0, 3.0, -1.0};
      if (p.rank() == 0) {
        s.send_local[1] = {0, 1};
        s.post(p, x_full, 11);
      } else {
        s.owned = 1;
        s.recv_count[0] = 3;
        s.ghost_base[0] = 1;
        s.ghosts = 3;
        s.validate();
        s.complete(p, x_full, 11);
      }
    });
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("from rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 11"), std::string::npos) << what;
  EXPECT_NE(what.find("16 bytes"), std::string::npos) << what;
  EXPECT_NE(what.find("24 bytes"), std::string::npos) << what;
}

TEST(CommSchedule, ValidateCatchesBadLayout) {
  CommSchedule s = two_rank_schedule(0);
  s.ghosts = 2;  // recv counts sum to 1
  EXPECT_THROW(s.validate(), Error);

  CommSchedule t = two_rank_schedule(0);
  t.send_local[1] = {5};  // out of owned range
  EXPECT_THROW(t.validate(), Error);

  CommSchedule u = two_rank_schedule(0);
  u.ghost_base[1] = 1;  // overlaps owned region
  EXPECT_THROW(u.validate(), Error);
}

TEST(CommSchedule, EmptyScheduleNoMessages) {
  runtime::Machine machine(2);
  auto reports = machine.run([&](runtime::Process& p) {
    CommSchedule s;
    s.nprocs = 2;
    s.owned = 4;
    s.send_local.assign(2, {});
    s.recv_count.assign(2, 0);
    s.ghost_base.assign(2, 0);
    s.validate();
    Vector x_full(4, 1.0);
    s.exchange(p, x_full, 7);
  });
  EXPECT_EQ(reports[0].stats.messages, 0);
  EXPECT_EQ(reports[1].stats.messages, 0);
}

TEST(CommSchedule, RepeatedExchangesAreStable) {
  // An iterative executor reuses the schedule every iteration; values must
  // track the current x.
  runtime::Machine machine(2);
  std::vector<double> last(2, 0.0);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full(4, 0.0);
    for (int iter = 0; iter < 5; ++iter) {
      for (int k = 0; k < 3; ++k)
        x_full[static_cast<std::size_t>(k)] = iter * 100.0 + p.rank() * 10 + k;
      s.exchange(p, x_full, 8);
    }
    last[static_cast<std::size_t>(p.rank())] = x_full[3];
  });
  EXPECT_DOUBLE_EQ(last[0], 400.0 + 10.0);  // iter 4, rank 1, local 0
  EXPECT_DOUBLE_EQ(last[1], 400.0 + 2.0);   // iter 4, rank 0, local 2
}

TEST(CommSchedule, ExchangeCountersReconcileWithCommStats) {
  // An exchange books its messages and bytes once, in the counter registry
  // and in the machine's CommStats alike (rank threads book under the
  // default "main" phase), and counts one schedule operation per rank.
  support::metrics_reset();
  runtime::Machine machine(2);
  auto reports = machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{1.0 * p.rank(), 2.0, 3.0, 0.0};
    s.exchange(p, x_full, 21);
  });
  auto snap = support::metrics_snapshot();
  const long long msgs = reports[0].stats.messages + reports[1].stats.messages;
  const long long bytes = reports[0].stats.bytes + reports[1].stats.bytes;
  EXPECT_GT(msgs, 0);
  EXPECT_EQ(snap.counts["comm.main.messages"], msgs);
  EXPECT_EQ(snap.counts["comm.main.bytes"], bytes);
  EXPECT_EQ(snap.counts["comm.main.exchanges"], 2);
}

}  // namespace
}  // namespace bernoulli::spmd
