// Compile-once, serve-many: a concurrent SpMV server over the engine
// ladder (docs/SERVING.md).
//
// The paper's inspector/executor split exists so one expensive
// compile/inspect amortizes over many executes; the KernelServer turns
// that into the serving story. Each registered matrix compiles to a
// (Plan, Query) pair ONCE, on the first request against it; the linked
// artifacts — LinkedPlan, LinkedMac and a pool of LinkedRunners — live in
// a bounded LRU cache keyed by
//
//   (storage identity, shape and nnz, distribution tag)
//
// The server compiles one fixed SpMV nest over CSR, so the concrete
// arrays, the shape and the distribution already fix the plan:
// registration links nothing. Requests against a cached key pay zero
// compile/link work: they lease a pooled runner, rebind the mac's x/y
// value spans to the request buffers and run.
//
// Batching: when enabled, concurrent requests against the same cached
// matrix coalesce leader/follower-style into one SpMM-style multi-vector
// sweep (one pass over the sparse rows amortizes across all gathered
// right-hand sides — the src/blas spmm move applied to in-flight
// requests). Per-request results are BITWISE identical to the unbatched
// path: each request's accumulation order (ascending k within a row,
// scale * A * x multiply chain) is exactly the engine's, only interleaved
// across requests. tests/server_test.cpp enforces this differentially
// against serial CompiledKernel execution and blas::spmm.
//
// Observability: every request books the same execute.* group an engine
// run books. Unbatched requests run the engine, which commits its own run
// record; a batched sweep commits the entry's warmup-run record k-fold
// (support::RunSink::commit), splitting the sweep's wall time across the
// k requests with an exact integer sum — one commit under the calling
// thread's registry shard lock — so execute.latency.sum_ns ==
// execute.wall_ns and the executor.* counters reconcile with an
// unbatched serve of the same traffic. Server-level
// counters (server.cache.hits/misses/evictions, server.requests,
// server.batches, server.batched_requests) and the server.request.latency
// histogram layer on top; see docs/SERVING.md for which layer owns what.
#pragma once

#include <condition_variable>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "formats/csr.hpp"

namespace bernoulli::server {

struct ServerOptions {
  /// Bounded LRU capacity, in cached plans. Evictions are safe while the
  /// evicted plan is serving: in-flight requests hold a shared reference
  /// and the entry dies with its last request.
  std::size_t plan_cache_capacity = 8;
  /// Coalesce concurrent requests against one cached matrix into
  /// SpMM-style multi-vector sweeps.
  bool batching = true;
  /// Max requests per sweep; further arrivals form the next sweep.
  int max_batch = 8;
  /// Workers for the batched sweep over support::shared_pool(); 1 = run
  /// on the leader. Row-chunked, so results stay bitwise-deterministic.
  /// Safe to use when clients themselves run on pool threads — nested
  /// run_slots degrades to inline execution instead of deadlocking.
  int sweep_threads = 1;
};

/// Point-in-time server statistics (per-server, unlike the process-global
/// server.* counters which aggregate across servers).
struct ServerStats {
  long long requests = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  long long batches = 0;          // multi-request sweeps executed
  long long batched_requests = 0; // requests served by those sweeps
};

class KernelServer {
 public:
  explicit KernelServer(ServerOptions opts = {});
  ~KernelServer();

  KernelServer(const KernelServer&) = delete;
  KernelServer& operator=(const KernelServer&) = delete;

  /// Registers a CSR matrix under `name` and returns its handle. The
  /// matrix is BORROWED — the caller keeps it alive and unmoved while the
  /// server may serve it. Registration only records the cache key
  /// (storage identity + shape + `distribution`); the nest is compiled
  /// and linked lazily by the first request (a cache miss).
  int add_csr(const std::string& name, const formats::Csr& m,
              const std::string& distribution = "local");

  /// y = A x against the cached plan (y is overwritten). Thread-safe;
  /// callers may issue concurrent requests from any thread, including
  /// pool worker threads. x must have A.cols() elements, y A.rows(); a
  /// request of another shape throws before it touches the cache.
  void spmv(int handle, ConstVectorView x, VectorView y);
  void spmv(const std::string& name, ConstVectorView x, VectorView y);

  /// The cache key registration derived for this handle (tests: two
  /// handles over the same storage+distribution share a key).
  const std::string& key_of(int handle) const;

  ServerStats stats() const;
  std::size_t cache_size() const;
  const ServerOptions& options() const { return opts_; }

 private:
  struct CacheEntry;
  struct Pending;
  struct MatrixRec {
    std::string name;
    const formats::Csr* matrix = nullptr;
    std::string distribution;
    std::string key;
  };

  std::shared_ptr<CacheEntry> get_entry(int handle, std::size_t x_size,
                                        std::size_t y_size);
  std::shared_ptr<CacheEntry> build_entry(const MatrixRec& rec);
  void run_single(CacheEntry& e, ConstVectorView x, VectorView y);
  void run_batch(CacheEntry& e, const std::vector<Pending*>& batch);
  void serve_batched(const std::shared_ptr<CacheEntry>& e, ConstVectorView x,
                     VectorView y);

  ServerOptions opts_;
  // Process-global server.* handles (one registry across servers, like the
  // executor.* family), resolved at construction. ServerStats mirror the
  // counts per server.
  support::Counter& requests_counter_;
  support::Counter& hits_counter_;
  support::Counter& misses_counter_;
  support::Counter& evictions_counter_;
  support::Counter& batches_counter_;
  support::Counter& batched_counter_;
  support::LatencyHistogram& request_latency_;

  mutable std::mutex cache_mu_;  // guards matrices_, cache_, lru_, stats_
  std::vector<MatrixRec> matrices_;
  struct CacheSlot {
    std::shared_ptr<CacheEntry> entry;
    std::list<std::string>::iterator lru_it;
  };
  std::map<std::string, CacheSlot> cache_;
  std::list<std::string> lru_;  // front = most recently used key
  ServerStats stats_;
};

}  // namespace bernoulli::server
