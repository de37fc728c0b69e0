// query_accelerator — the LruIndex scenario end to end (paper Section 3.2).
//
// A switch between YCSB clients and a database caches *indexes* (48-bit
// record addresses) in four series-connected P4LRU3 arrays. Query packets
// read the cache and stamp cached_flag/cached_index; the server bypasses its
// B+ tree on a hit; reply packets perform the single cache mutation.
//
//   ./build/examples/example_query_accelerator [items] [queries] [threads]
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

using namespace p4lru;
using namespace p4lru::systems::lruindex;

int main(int argc, char** argv) try {
    const std::uint64_t items =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
    const std::size_t queries =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100'000;
    const std::size_t threads =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 8;

    std::printf("loading database: %lu items (64-byte records, B+ tree)\n",
                items);
    DbServer server(items, ServerCosts{});
    std::printf("index height: %zu levels\n\n", server.index_height());

    DriverConfig cfg;
    cfg.threads = threads;
    cfg.queries = queries;
    cfg.workload.items = items;
    cfg.workload.zipf_alpha = 0.9;  // the paper's YCSB skew

    // The paper's four-pipeline LruIndex: 4 series-connected P4LRU3 arrays.
    SeriesIndexCache cache(4, 1u << 12, 0x1D);
    std::printf("switch cache: 4 levels x %zu units x 3 = %zu indexes\n\n",
                std::size_t{1} << 12, cache.series().capacity());

    NaiveIndexCache no_cache;
    const auto cached = run_driver(cfg, server, cache);
    const auto naive = run_driver(cfg, server, no_cache);

    std::printf("with LruIndex : %8.1f KTPS  avg latency %6.1f us  miss %5.2f%%\n",
                cached.throughput_ktps, cached.avg_latency_us,
                100.0 * cached.miss_rate);
    std::printf("naive (no cache): %6.1f KTPS  avg latency %6.1f us\n",
                naive.throughput_ktps, naive.avg_latency_us);
    std::printf("speedup: %.2fx   wrong replies: %lu (must be 0)\n",
                cached.throughput_ktps / naive.throughput_ktps,
                cached.wrong_replies);
    // Exit nonzero if the server ever answered with another key's record.
    return cached.wrong_replies == 0 && naive.wrong_replies == 0 ? 0 : 1;
} catch (const std::exception& e) {
    // A bad argument (zero items, queries or threads) is an error, not an
    // abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
