#include "spmd/comm.hpp"

#include <cstring>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace bernoulli::spmd {

// Schedule-level counters, split by the caller's counter phase
// (inspector/executor/main). Message and byte counts are booked once, in
// runtime::Process::deliver, so they reconcile exactly with
// runtime::CommStats; here we count the schedule OPERATIONS and the
// values they move.

void CommSchedule::post(runtime::Process& p, ConstVectorView x_full,
                        int tag) const {
  BERNOULLI_CHECK(static_cast<index_t>(x_full.size()) == full_size());
  for (int q = 0; q < nprocs; ++q) {
    const auto& list = send_local[static_cast<std::size_t>(q)];
    if (list.empty()) continue;
    // Gather straight into the payload the message takes over.
    std::vector<std::byte> payload(list.size() * sizeof(value_t));
    for (std::size_t k = 0; k < list.size(); ++k)
      std::memcpy(payload.data() + k * sizeof(value_t),
                  &x_full[static_cast<std::size_t>(list[k])], sizeof(value_t));
    p.send_bytes(q, tag, std::move(payload));
  }
}

void CommSchedule::complete(runtime::Process& p, VectorView x_full,
                            int tag) const {
  BERNOULLI_CHECK(static_cast<index_t>(x_full.size()) == full_size());
  for (int q = 0; q < nprocs; ++q) {
    const index_t count = recv_count[static_cast<std::size_t>(q)];
    if (count == 0) continue;
    p.recv_into<value_t>(
        q, tag,
        x_full.subspan(
            static_cast<std::size_t>(ghost_base[static_cast<std::size_t>(q)]),
            static_cast<std::size_t>(count)));
  }
}

void CommSchedule::exchange(runtime::Process& p, VectorView x_full,
                            int tag) const {
  support::TraceSpan span("exchange", "comm");
  span.arg("ghosts", static_cast<long long>(ghosts));
  support::ProfilePhaseScope prof(support::kProfPhaseExchange);
  const support::PhaseCounters& phase = support::phase_counters();
  phase.exchanges.add();
  phase.ghost_values.add(ghosts);
  post(p, x_full, tag);
  complete(p, x_full, tag);
}

void CommSchedule::validate() const {
  BERNOULLI_CHECK(nprocs >= 1 && owned >= 0 && ghosts >= 0);
  BERNOULLI_CHECK(send_local.size() == static_cast<std::size_t>(nprocs));
  BERNOULLI_CHECK(recv_count.size() == static_cast<std::size_t>(nprocs));
  BERNOULLI_CHECK(ghost_base.size() == static_cast<std::size_t>(nprocs));
  index_t total = 0;
  for (int q = 0; q < nprocs; ++q) {
    for (index_t off : send_local[static_cast<std::size_t>(q)])
      BERNOULLI_CHECK(off >= 0 && off < owned);
    BERNOULLI_CHECK(recv_count[static_cast<std::size_t>(q)] >= 0);
    if (recv_count[static_cast<std::size_t>(q)] > 0) {
      BERNOULLI_CHECK(ghost_base[static_cast<std::size_t>(q)] >= owned);
      BERNOULLI_CHECK(ghost_base[static_cast<std::size_t>(q)] +
                          recv_count[static_cast<std::size_t>(q)] <=
                      full_size());
    }
    total += recv_count[static_cast<std::size_t>(q)];
  }
  BERNOULLI_CHECK(total == ghosts);
}

}  // namespace bernoulli::spmd
