// Figure 14 — LruMon comparative experiment (Section 4.2.1): elephant-packet
// cache miss rate under each replacement policy (write-cache semantics:
// hits accumulate byte counts).
//   (a) miss rate vs cache memory
//   (b) miss rate vs filter threshold
//
// Cells are independent deterministic replays, evaluated via
// bench::run_series (parallel on multicore machines) with per-series
// timings printed after each figure table.
#include <cstdio>

#include "bench_common.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrumon;

namespace {

using Factory = PolicyFactory<std::uint32_t, FlowLen, core::AddMerge>;

/// Elephant miss rate of one sequential replay through the one-partition
/// monitor.
double miss_rate(const std::vector<PacketRecord>& trace,
                 const LruMonTarget::PolicyFactory& policy,
                 std::uint32_t threshold) {
    FilterConfig fcfg;
    fcfg.reset_period = 10 * kMillisecond;
    LruMonConfig cfg;
    cfg.threshold = threshold;
    cfg.track_ground_truth = false;
    LruMonTarget target(
        1, [&](std::size_t) { return make_filter(FilterKind::kTower, fcfg); },
        policy, cfg);
    replay::SpanOpSource source(trace);
    return target
        .report(replay::replay_target_sequential_stream(target, source).value())
        .cache_miss_rate;
}

double tuned_timeout_miss(const std::vector<PacketRecord>& trace,
                          std::size_t entries, std::uint32_t threshold) {
    double best = 1.0;
    for (const TimeNs t :
         {3 * kMillisecond, 10 * kMillisecond, 30 * kMillisecond,
          100 * kMillisecond}) {
        best = std::min(
            best, miss_rate(
                      trace,
                      [=](std::size_t) {
                          return Factory::timeout(entries, 0xA7, t);
                      },
                      threshold));
    }
    return best;
}

std::vector<SeriesJob> row_jobs(const std::vector<PacketRecord>& trace,
                                const std::string& row_label,
                                std::size_t entries,
                                std::uint32_t threshold) {
    const auto n = static_cast<std::uint64_t>(trace.size());
    const auto job = [&](const char* name,
                         LruMonTarget::PolicyFactory policy) {
        return SeriesJob{row_label + "/" + name, n,
                         [&trace, policy, threshold] {
                             return miss_rate(trace, policy, threshold);
                         }};
    };
    return {
        job("P4LRU3",
            [=](std::size_t) { return Factory::p4lru3(entries, 0xA7); }),
        {row_label + "/Timeout", 4 * n,
         [&trace, entries, threshold] {
             return tuned_timeout_miss(trace, entries, threshold);
         }},
        job("Elastic",
            [=](std::size_t) { return Factory::elastic(entries, 0xA7); }),
        job("Coco",
            [=](std::size_t) { return Factory::coco(entries, 0xA7); }),
        job("LRU_IDEAL",
            [=](std::size_t) { return Factory::ideal(entries); }),
    };
}

}  // namespace

int main() {
    const auto trace = make_trace(60, 140);
    const std::size_t base_entries = scaled(3 * (1u << 8));

    // --- (a) miss rate vs memory ------------------------------------------
    {
        const std::vector<double> mults = {0.5, 1.0, 2.0, 4.0, 8.0};
        std::vector<SeriesJob> jobs;
        std::vector<std::size_t> row_entries;
        for (const double mult : mults) {
            const auto entries =
                static_cast<std::size_t>(base_entries * mult);
            row_entries.push_back(entries);
            const auto row =
                row_jobs(trace, std::to_string(entries), entries, 1500);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        TimingReport timing;
        const auto res = run_series(jobs, &timing);

        ConsoleTable t({"entries", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < mults.size(); ++r) {
            t.add_row({std::to_string(row_entries[r]),
                       pct(res[r * 5 + 0].value), pct(res[r * 5 + 1].value),
                       pct(res[r * 5 + 2].value), pct(res[r * 5 + 3].value),
                       pct(res[r * 5 + 4].value)});
        }
        t.print("Figure 14(a): LruMon cache miss rate vs memory");
        timing.print("Figure 14(a): per-series replay timings");
    }

    // --- (b) miss rate vs filter threshold --------------------------------
    {
        const std::vector<std::uint32_t> thresholds = {500u, 1000u, 1500u,
                                                       3000u, 6000u};
        std::vector<SeriesJob> jobs;
        for (const std::uint32_t thr : thresholds) {
            const auto row = row_jobs(trace, "thr" + std::to_string(thr),
                                      base_entries, thr);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        TimingReport timing;
        const auto res = run_series(jobs, &timing);

        ConsoleTable t({"threshold B", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < thresholds.size(); ++r) {
            t.add_row({std::to_string(thresholds[r]),
                       pct(res[r * 5 + 0].value), pct(res[r * 5 + 1].value),
                       pct(res[r * 5 + 2].value), pct(res[r * 5 + 3].value),
                       pct(res[r * 5 + 4].value)});
        }
        t.print("Figure 14(b): LruMon cache miss rate vs filter threshold");
        timing.print("Figure 14(b): per-series replay timings");
    }

    std::printf(
        "\nPaper shape: Coco ~ Elastic > Timeout > P4LRU3; reductions up to\n"
        "35.2/31.7/8.0%% in (a) and 36.0/31.2/8.1%% in (b).\n");
    return 0;
}
