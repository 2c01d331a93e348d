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
// Every request runs the linked engine once: there is one request path.
//
// Observability: every request books the same execute.* group an engine
// run books — the engine commits its own run record — so
// execute.latency.sum_ns == execute.wall_ns and executor.runs counts
// exactly one run per served request. Server-level counters
// (server.cache.hits/misses/evictions, server.requests) and the
// server.request.latency histogram layer on top; see docs/SERVING.md for
// which layer owns what.
#pragma once

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
  bool batching = false;  // inert: perfbench still sets it (ROADMAP item 11)
  int max_batch = 1;      // inert: perfbench still sets it (ROADMAP item 11)
  int sweep_threads = 1;  // inert: perfbench still sets it (ROADMAP item 11)
};

/// Point-in-time server statistics (per-server, unlike the process-global
/// server.* counters which aggregate across servers).
struct ServerStats {
  long long requests = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  long long batches = 0;           // inert: always 0 (ROADMAP item 11)
  long long batched_requests = 0;  // inert: always 0 (ROADMAP item 11)
};

class KernelServer {
 public:
  explicit KernelServer(ServerOptions opts = {});
  ~KernelServer();

  KernelServer(const KernelServer&) = delete;
  KernelServer& operator=(const KernelServer&) = delete;

  /// Registers a CSR matrix under `name` and returns its handle; a name
  /// already registered throws. The matrix is BORROWED — the caller keeps
  /// it alive and unmoved while the server may serve it. Registration
  /// only records the cache key (storage identity + shape +
  /// `distribution`); the nest is compiled and linked lazily by the first
  /// request (a cache miss).
  int add_csr(const std::string& name, const formats::Csr& m,
              const std::string& distribution = "local");

  /// y = A x against the cached plan (y is overwritten). Thread-safe;
  /// callers may issue concurrent requests from any thread, including
  /// pool worker threads. x must have A.cols() elements, y A.rows(), and
  /// the two must not overlap; any other request throws before it touches
  /// the cache.
  void spmv(int handle, ConstVectorView x, VectorView y);
  void spmv(const std::string& name, ConstVectorView x, VectorView y);

  /// The cache key registration derived for this handle (tests: two
  /// handles over the same storage+distribution share a key).
  const std::string& key_of(int handle) const;

  ServerStats stats() const;
  std::size_t cache_size() const;

 private:
  struct CacheEntry;
  struct MatrixRec {
    std::string name;
    const formats::Csr* matrix = nullptr;
    std::string key;
  };

  std::shared_ptr<CacheEntry> get_entry(int handle, ConstVectorView x,
                                        VectorView y);
  static std::shared_ptr<CacheEntry> build_entry(const MatrixRec& rec);
  static void run_single(CacheEntry& e, ConstVectorView x, VectorView y);

  ServerOptions opts_;
  // Process-global server.* handles (one registry across servers, like the
  // executor.* family), resolved at construction. ServerStats mirror the
  // counts per server.
  support::Counter& requests_counter_;
  support::Counter& hits_counter_;
  support::Counter& misses_counter_;
  support::Counter& evictions_counter_;
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
