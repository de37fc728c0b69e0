// Closed-loop benchmark driver for LruIndex: `threads` client threads, each
// with one outstanding YCSB query.  The driver is a clock around the same
// QueryStep LruIndexTarget runs (lruindex_target.hpp): it calls the query
// pass, the server attempts, serve-and-check and the cache's reply pass at
// their event times, and adds only time — net delay, backoff, the
// serialized index latch (ServerCosts::index_lock_fraction) and latency.
// Thread scaling is sublinear because index traversals contend on that
// latch, which is also why index bypasses (cache hits) buy more than their
// raw latency.
//
// Fault tolerance: a DriverConfig may carry a fault::FlakyService modelling
// a db server that refuses some requests.  A refused attempt is re-sent
// after retry_backoff(retry, k) in simulated time; a query that exhausts
// its attempts completes as a counted failure instead of wedging the
// closed loop.  With no FlakyService attached the retry path is never
// entered.
#pragma once

#include <cstdint>

#include "p4lru/common/types.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/trace/ycsb.hpp"

namespace p4lru::systems::lruindex {

struct DriverConfig {
    std::size_t threads = 8;
    std::size_t queries = 200'000;            ///< total across all threads
    TimeNs net_delay = 3 * kMicrosecond;      ///< one-way client<->server
    trace::YcsbConfig workload{};             ///< keys, skew
    const fault::FlakyService* flaky = nullptr;  ///< optional injected faults
    RetryConfig retry{};    ///< consulted only when flaky != nullptr
};

/// The step's counters (index_report of its LruIndexStats) plus the time
/// the closed loop adds.
struct DriverReport : LruIndexReport {
    double throughput_ktps = 0.0;  ///< kilo transactions per second
    double avg_latency_us = 0.0;
};

/// Run the closed loop against `cache`; NaiveIndexCache is the paper's
/// "Naive Solution".
[[nodiscard]] DriverReport run_driver(const DriverConfig& cfg,
                                      DbServer& server, IndexCache& cache);

}  // namespace p4lru::systems::lruindex
