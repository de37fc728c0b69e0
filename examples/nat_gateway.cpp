// nat_gateway — the LruTable scenario end to end (paper Section 3.1).
//
// A NAT gateway translates virtual destination addresses on the data plane.
// The control plane holds the authoritative table; the data plane caches the
// hot entries in a P4LRU3 array. This example replays a synthetic CAIDA-like
// trace and prints the fast-path/slow-path breakdown, then swaps in the
// hash-table baseline for comparison.
//
//   ./build/examples/example_nat_gateway [packets] [cache_entries]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "p4lru/cache/policy.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"

using namespace p4lru;
using namespace p4lru::systems::lrutable;

namespace {

/// Replay the trace through one gateway: a single partition, so one cache
/// and one pending-fill queue, exactly the paper's system.
LruTableReport translate(const std::vector<PacketRecord>& trace,
                         const LruTableTarget::PolicyFactory& make_policy) {
    LruTableConfig cfg;
    cfg.slow_path_delay = 40 * kMicrosecond;
    LruTableTarget nat(1, make_policy, cfg);
    replay::SpanOpSource source(trace);
    return nat.report(
        replay::replay_target_sequential_stream(nat, source).value());
}

void print(const char* name, const LruTableReport& r) {
    std::printf(
        "%-8s packets %-8lu fast-path %-8lu placeholder %-6lu misses %-6lu\n"
        "         miss rate %.2f%%  avg added latency %.2f us\n",
        name, r.packets, r.fast_path, r.placeholder_hits, r.misses,
        100.0 * r.miss_rate, r.avg_added_latency_us);
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t packets =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 800'000;
    const std::size_t entries =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 6'144;

    std::printf("generating a CAIDA_30-like trace (%zu packets)...\n",
                packets);
    trace::TraceConfig tc;
    tc.total_packets = packets;
    tc.segments = 30;
    const auto trace = trace::generate_trace(tc);
    const auto stats = trace::compute_stats(trace);
    std::printf("trace: %zu packets, %zu flows, peak concurrency %zu\n\n",
                stats.packets, stats.flows, stats.max_concurrent);

    print("P4LRU3", translate(trace, [=](std::size_t) {
              return std::make_unique<cache::P4lruArrayPolicy<
                  VirtualAddress, std::uint32_t, 3>>(entries, 0x9A);
          }));
    print("P4LRU1", translate(trace, [=](std::size_t) {
              return std::make_unique<cache::P4lruArrayPolicy<
                  VirtualAddress, std::uint32_t, 1>>(entries, 0x9A);
          }));
    print("IDEAL", translate(trace, [=](std::size_t) {
              return std::make_unique<
                  cache::IdealLruPolicy<VirtualAddress, std::uint32_t>>(
                  entries);
          }));

    std::printf(
        "\nEvery slow-path packet pays the control-plane round trip; the\n"
        "pipeline-LRU fast path should sit between the hash baseline and\n"
        "the unconstrained ideal LRU.\n");
    return 0;
}
