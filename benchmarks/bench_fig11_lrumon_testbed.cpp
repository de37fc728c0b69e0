// Figure 11 — LruMon testbed experiment (CM-sketch filter, as the paper's
// testbed uses; reset period 10 ms).
//   (a) upload rate (KPPS) vs traffic concurrency, threshold 1500 B
//   (b) upload rate vs filter threshold, CAIDA_60
// Series: P4LRU3 and Baseline (hash-table cache).
//
// The replay runs through the generic engine (LruMonTarget +
// run_system_series_stream): figure points use the sequential reference,
// and the heaviest trace (CAIDA_60 at threshold 1500) additionally sweeps
// the engine-mode axis — inline batching and 2/4-worker threaded sharding —
// with a bit-equality check against the sequential statistics.
// BENCH_fig11_lrumon.json records each (a) series' upload rate and its
// Mops/s per engine mode.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrumon;

namespace {

using Factory = PolicyFactory<std::uint32_t, FlowLen, core::AddMerge>;

// The target partitions the monitor by fingerprint32(flow) % G; both series
// run with the same geometry so P4LRU3-vs-Baseline stays apples-to-apples.
constexpr std::size_t kPartitions = 8;

/// Per-partition CM filter slice: the sketch width is split across the
/// partitions (same total counter budget as one monolithic filter), each
/// slice distinctly seeded.
LruMonTarget::FilterFactory filter_slices() {
    return [](std::size_t p) {
        FilterConfig fcfg;
        fcfg.reset_period = 10 * kMillisecond;
        fcfg.cm_width =
            std::max<std::size_t>(scaled(1u << 16) / kPartitions, 64);
        fcfg.seed = 0x70EEE + p * 0x9E3779B9ull;
        return make_filter(FilterKind::kCm, fcfg);
    };
}

/// Per-partition cache slice from one of the Factory::p4lruN constructors.
template <typename Make>
LruMonTarget::PolicyFactory policy_slices(std::size_t total,
                                          std::uint32_t seed, Make make) {
    const std::size_t per = std::max<std::size_t>(total / kPartitions, 3);
    return [per, seed, make](std::size_t p) {
        return make(per, seed + static_cast<std::uint32_t>(p) * 0x9E37u);
    };
}

struct RunResult {
    LruMonReport report;  ///< from the sequential reference statistics
    std::vector<SystemModePoint<LruMonStats>> modes;
};

RunResult run(const std::vector<PacketRecord>& trace,
              const LruMonTarget::PolicyFactory& policies,
              std::uint32_t threshold, const std::vector<EngineMode>& axis) {
    LruMonConfig cfg;
    cfg.threshold = threshold;
    cfg.track_ground_truth = false;  // testbed figure measures uploads only
    const auto make = [&] {
        return LruMonTarget(kPartitions, filter_slices(), policies, cfg);
    };
    RunResult r;
    replay::SpanOpSource source(trace);
    r.modes = run_system_series_stream(make, source, axis);
    r.report = LruMonTarget(kPartitions, filter_slices(), policies, cfg)
                   .report(r.modes.front().stats);
    return r;
}

}  // namespace

int main() {
    // Sized so elephant flows contend for the cache (the regime where the
    // replacement policy matters, as on the paper's testbed).
    const std::size_t entries = scaled(3 * (1u << 8));
    std::vector<Metric> json;
    bool all_match = true;

    // --- (a) upload rate vs concurrency ----------------------------------
    {
        ConsoleTable t({"trace", "max concurrent flows", "P4LRU3 KPPS",
                        "Baseline KPPS", "improvement x"});
        for (const std::size_t n : concurrency_sweep()) {
            const auto trace = make_trace(n, 70 + n);
            const auto stats = trace::compute_stats(trace);
            const auto axis =
                n == 60 ? engine_mode_axis() : sequential_axis();
            const auto p3 =
                run(trace, policy_slices(entries, 0xD1, Factory::p4lru3),
                    1500, axis);
            const auto p1 =
                run(trace, policy_slices(entries, 0xD1, Factory::p4lru1),
                    1500, axis);
            const std::string tag = "CAIDA" + std::to_string(n);
            for (const auto& [label, r] :
                 {std::pair{tag + "/P4LRU3", &p3},
                  std::pair{tag + "/Baseline", &p1}}) {
                all_match &= append_mode_metrics(json, label, r->modes);
                json.push_back({label + ".upload_kpps", r->report.upload_kpps,
                                "kpps"});
            }
            t.add_row({tag, std::to_string(stats.max_concurrent),
                       ConsoleTable::num(p3.report.upload_kpps, 1),
                       ConsoleTable::num(p1.report.upload_kpps, 1),
                       ConsoleTable::num(
                           p1.report.upload_kpps / p3.report.upload_kpps,
                           2)});
        }
        t.print("Figure 11(a): LruMon upload rate vs concurrency");
    }

    // --- (b) upload rate vs filter threshold -----------------------------
    {
        const auto trace = make_trace(60, 71);
        ConsoleTable t({"threshold B", "P4LRU3 KPPS", "Baseline KPPS",
                        "improvement x"});
        for (const std::uint32_t thr : {500u, 1000u, 1500u, 3000u, 6000u}) {
            const auto p3 =
                run(trace, policy_slices(entries, 0xD2, Factory::p4lru3),
                    thr, sequential_axis());
            const auto p1 =
                run(trace, policy_slices(entries, 0xD2, Factory::p4lru1),
                    thr, sequential_axis());
            t.add_row({std::to_string(thr),
                       ConsoleTable::num(p3.report.upload_kpps, 1),
                       ConsoleTable::num(p1.report.upload_kpps, 1),
                       ConsoleTable::num(
                           p1.report.upload_kpps / p3.report.upload_kpps,
                           2)});
        }
        t.print("Figure 11(b): LruMon upload rate vs filter threshold");
    }

    std::printf(
        "\nEngine axis (CAIDA60): inline + 2/4-worker sharded replays %s\n"
        "the sequential statistics bit for bit.\n",
        all_match ? "match" : "MISMATCH");
    const bool wrote = write_bench_json("fig11_lrumon", all_match, json);
    std::printf(
        "\nPaper shape: upload rate grows with concurrency (35.5 -> 74.0\n"
        "KPPS for P4LRU3 vs 48.0 -> 93.7 for the baseline, up to 1.35x)\n"
        "and falls as the threshold rises (92.9 -> 36.0 vs 115.8 -> 47.9,\n"
        "up to 1.33x).\n");
    return all_match && wrote ? 0 : 1;
}
