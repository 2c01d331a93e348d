// Communication schedules: the executor-side artifact the inspector
// produces (paper §3.2.3, Eq. 21-22).
//
// Layout convention for the distributed vector x on each rank:
//   x_full[0 .. owned)                — the values this rank owns;
//   x_full[owned .. owned + ghosts)   — ghost slots for non-local values,
//                                       grouped by owning peer in rank
//                                       order (ghost_base[q] is peer q's
//                                       first slot).
// exchange() fills the ghost region: it sends the locally-owned values
// peers asked for and receives this rank's ghosts.
#pragma once

#include <vector>

#include "runtime/machine.hpp"
#include "support/types.hpp"

namespace bernoulli::spmd {

struct CommSchedule {
  int nprocs = 1;
  index_t owned = 0;
  index_t ghosts = 0;

  /// send_local[q]: local offsets of my x values that peer q needs.
  std::vector<std::vector<index_t>> send_local;

  /// recv_count[q]: ghost values arriving from peer q.
  std::vector<index_t> recv_count;

  /// ghost_base[q]: x_full slot of the first ghost owned by peer q.
  std::vector<index_t> ghost_base;

  index_t full_size() const { return owned + ghosts; }

  /// Posts all sends for this exchange: gathers owned values straight into
  /// each message's payload. Split from complete() so executors can overlap
  /// computation with communication the way the BlockSolve library does.
  void post(runtime::Process& p, ConstVectorView x_full, int tag) const;

  /// Receives all ghost values straight into x_full's ghost region; a
  /// message whose size does not match its peer's ghost range throws.
  void complete(runtime::Process& p, VectorView x_full, int tag) const;

  /// post + complete back-to-back (the non-overlapping executor).
  void exchange(runtime::Process& p, VectorView x_full, int tag) const;

  void validate() const;
};

}  // namespace bernoulli::spmd
