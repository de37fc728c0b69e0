// Figure 9 — LruTable testbed experiment.
//   (a) fast-path miss rate vs traffic concurrency (CAIDA_1 .. CAIDA_60)
//   (b) added latency vs concurrency
// Series: P4LRU3 (the system) and Baseline (hash-table cache = P4LRU1),
// exactly the comparison of the paper's testbed run.
//
// The replay runs through the generic engine (LruTableTarget +
// run_system_series_stream): every figure point is the sequential
// reference, and the heaviest trace (CAIDA_60) additionally sweeps the
// engine-mode axis — inline batching and threaded sharding at 2 and 4
// workers — with a bit-equality check against the sequential statistics.
// BENCH_fig09_lrutable.json records each series' miss rate and its Mops/s
// per engine mode.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrutable;

namespace {

using Factory = PolicyFactory<VirtualAddress, std::uint32_t>;

// The target partitions the gateway by mix64(dst_ip) % G; both series run
// with the same geometry so the P4LRU3-vs-Baseline comparison is
// apples-to-apples.
constexpr std::size_t kPartitions = 8;

/// Split `total` cache entries across the partitions, each slice seeded
/// distinctly.  `make` is one of the Factory::p4lruN constructors.
template <typename Make>
LruTableTarget::PolicyFactory slices(std::size_t total, std::uint32_t seed,
                                     Make make) {
    const std::size_t per = std::max<std::size_t>(total / kPartitions, 3);
    return [per, seed, make](std::size_t p) {
        return make(per, seed + static_cast<std::uint32_t>(p) * 0x9E37u);
    };
}

struct RunResult {
    LruTableReport report;  ///< from the sequential reference statistics
    std::vector<SystemModePoint<LruTableStats>> modes;
};

RunResult run(const std::vector<PacketRecord>& trace,
              const LruTableTarget::PolicyFactory& policies,
              const std::vector<EngineMode>& axis) {
    LruTableConfig cfg;
    cfg.slow_path_delay = 40 * kMicrosecond;  // control-plane RTT
    const auto make = [&] {
        return LruTableTarget(kPartitions, policies, cfg);
    };
    RunResult r;
    replay::SpanOpSource source(trace);
    r.modes = run_system_series_stream(make, source, axis);
    r.report = LruTableTarget(kPartitions, policies, cfg)
                   .report(r.modes.front().stats);
    return r;
}

}  // namespace

int main() {
    // Cache sized like the paper relative to the trace: the array holds
    // roughly the peak flow concurrency of the busiest trace.
    const std::size_t entries = scaled(3 * (1u << 12));

    ConsoleTable a({"trace", "max concurrent flows", "P4LRU3 miss %",
                    "Baseline miss %", "improvement x"});
    ConsoleTable b({"trace", "max concurrent flows", "P4LRU3 latency us",
                    "Baseline latency us", "improvement x"});
    std::vector<Metric> json;
    bool all_match = true;

    for (const std::size_t n : concurrency_sweep()) {
        const auto trace = make_trace(n, /*seed=*/40 + n);
        const auto stats = trace::compute_stats(trace);
        // Full engine axis only on the heaviest trace; the other figure
        // points need just the sequential reference.
        const auto axis = n == 60 ? engine_mode_axis() : sequential_axis();

        const auto p3 =
            run(trace, slices(entries, 0x91, Factory::p4lru3), axis);
        const auto p1 =
            run(trace, slices(entries, 0x91, Factory::p4lru1), axis);
        const std::string tag = "CAIDA" + std::to_string(n);
        for (const auto& [label, r] : {std::pair{tag + "/P4LRU3", &p3},
                                       std::pair{tag + "/Baseline", &p1}}) {
            all_match &= append_mode_metrics(json, label, r->modes);
            json.push_back(
                {label + ".miss_rate", r->report.miss_rate, "fraction"});
        }

        a.add_row({tag, std::to_string(stats.max_concurrent),
                   pct(p3.report.miss_rate), pct(p1.report.miss_rate),
                   ConsoleTable::num(
                       p1.report.miss_rate / p3.report.miss_rate, 2)});
        b.add_row({tag, std::to_string(stats.max_concurrent),
                   ConsoleTable::num(p3.report.avg_added_latency_us, 3),
                   ConsoleTable::num(p1.report.avg_added_latency_us, 3),
                   ConsoleTable::num(p1.report.avg_added_latency_us /
                                         p3.report.avg_added_latency_us,
                                     2)});
    }

    a.print("Figure 9(a): LruTable miss rate vs concurrency");
    b.print("Figure 9(b): LruTable added latency vs concurrency");

    std::printf(
        "\nEngine axis (CAIDA60): inline + 2/4-worker sharded replays %s\n"
        "the sequential statistics bit for bit.\n",
        all_match ? "match" : "MISMATCH");
    const bool wrote = write_bench_json("fig09_lrutable", all_match, json);
    std::printf(
        "\nPaper shape: miss rate rises with concurrency; P4LRU3 roughly\n"
        "halves the baseline miss rate (paper: 1.4-2.7%% vs 3.0-5.1%%, up\n"
        "to 2.14x) and cuts added latency up to 1.35x.\n");
    return all_match && wrote ? 0 : 1;
}
