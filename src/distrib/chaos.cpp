#include "distrib/chaos.hpp"

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace bernoulli::distrib {

namespace {

// Tag space reserved for the translation table's exchanges.
constexpr int kBuildTag = 9101;
constexpr int kQueryTag = 9102;
constexpr int kReplyTag = 9103;

struct TableEntry {
  index_t global;
  index_t local;
  int owner;
};

struct Reply {
  int owner;
  index_t local;
};

}  // namespace

ChaosTranslationTable::ChaosTranslationTable(runtime::Process& p,
                                             index_t global_size,
                                             std::span<const index_t> my_rows)
    : n_(global_size) {
  support::TraceSpan span("chaos.build", "distrib");
  span.arg("registered", static_cast<long long>(my_rows.size()));
  support::counter("distrib.chaos.builds").add();
  support::counter("distrib.chaos.registered")
      .add(static_cast<long long>(my_rows.size()));
  const int P = p.nprocs();
  block_ = (n_ + P - 1) / P;
  if (block_ == 0) block_ = 1;

  // Route each owned row's entry to the table slice holding it.
  std::vector<std::vector<TableEntry>> out(static_cast<std::size_t>(P));
  p.solo([&] {
    for (std::size_t k = 0; k < my_rows.size(); ++k) {
      index_t i = my_rows[k];
      BERNOULLI_CHECK(i >= 0 && i < n_);
      int q = static_cast<int>(i / block_);
      out[static_cast<std::size_t>(q)].push_back(
          {i, static_cast<index_t>(k), p.rank()});
    }
  });
  auto in = p.alltoallv(out, kBuildTag);

  const index_t lo = static_cast<index_t>(p.rank()) * block_;
  const index_t hi = std::min<index_t>(lo + block_, n_);
  p.solo([&] {
    for (const auto& batch : in) {
      for (const TableEntry& e : batch) {
        BERNOULLI_CHECK(e.global >= lo && e.global < hi);
        auto [it, inserted] =
            slice_.emplace(e.global, OwnerLocal{e.owner, e.local});
        BERNOULLI_CHECK_MSG(inserted,
                            "global index " << e.global << " claimed twice");
      }
    }
  });
}

std::vector<OwnerLocal> ChaosTranslationTable::query(
    runtime::Process& p, std::span<const index_t> globals) const {
  support::TraceSpan span("chaos.query", "distrib");
  span.arg("translated", static_cast<long long>(globals.size()));
  support::counter("distrib.chaos.queries").add();
  support::counter("distrib.chaos.translated")
      .add(static_cast<long long>(globals.size()));
  const int P = p.nprocs();

  // Round 1: scatter the queries to the table slices.
  std::vector<std::vector<index_t>> ask(static_cast<std::size_t>(P));
  // Remember where each query came from so replies can be re-ordered.
  std::vector<std::vector<std::size_t>> origin(static_cast<std::size_t>(P));
  p.solo([&] {
    for (std::size_t k = 0; k < globals.size(); ++k) {
      index_t i = globals[k];
      BERNOULLI_CHECK(i >= 0 && i < n_);
      int q = static_cast<int>(i / block_);
      ask[static_cast<std::size_t>(q)].push_back(i);
      origin[static_cast<std::size_t>(q)].push_back(k);
    }
  });
  auto questions = p.alltoallv(ask, kQueryTag);

  // Answer from the local slice.
  std::vector<std::vector<Reply>> answers(static_cast<std::size_t>(P));
  p.solo([&] {
    for (int q = 0; q < P; ++q) {
      for (index_t i : questions[static_cast<std::size_t>(q)]) {
        auto it = slice_.find(i);
        BERNOULLI_CHECK_MSG(it != slice_.end(),
                            "index " << i << " not present in the table");
        answers[static_cast<std::size_t>(q)].push_back(
            {it->second.owner, it->second.local});
      }
    }
  });

  // Round 2: replies travel back; scatter into the original order.
  auto replies = p.alltoallv(answers, kReplyTag);
  std::vector<OwnerLocal> out(globals.size());
  for (int q = 0; q < P; ++q) {
    const auto& rep = replies[static_cast<std::size_t>(q)];
    const auto& org = origin[static_cast<std::size_t>(q)];
    BERNOULLI_CHECK(rep.size() == org.size());
    for (std::size_t k = 0; k < rep.size(); ++k)
      out[org[k]] = {rep[k].owner, rep[k].local};
  }
  return out;
}

}  // namespace bernoulli::distrib
