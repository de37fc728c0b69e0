// Figure 10 — LruIndex testbed experiment (YCSB, Zipf alpha = 0.9).
//   (a) query throughput vs number of client threads (1e5-item database)
//   (b) throughput speedup over the Naive (cache-less) solution vs database
//       size, at 8 threads
//   (c) the same query stream through the generic replay engine
//       (LruIndexTarget + run_system_series_stream): sequential reference vs
//       inline and 2/4-worker threaded-sharded, statistics bit-identical;
//       BENCH_fig10_lruindex.json records the miss rate and the Mops/s per
//       engine mode.
// Series: P4LRU3 (two-pipeline LruIndex = 2 series levels, as the paper's
// testbed uses) and Baseline (hash-table cache under the same protocol).
// (a)/(b) keep the closed-loop driver: client-thread throughput is a
// latency-model property the open-loop engine intentionally does not model.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lruindex;

namespace {

DriverConfig driver_config(std::size_t threads, std::uint64_t items,
                           std::size_t queries) {
    DriverConfig cfg;
    cfg.threads = threads;
    cfg.queries = queries;
    cfg.workload.items = items;
    cfg.workload.zipf_alpha = 0.9;
    cfg.workload.seed = 77;
    return cfg;
}

std::unique_ptr<IndexCache> baseline(std::size_t entries) {
    return std::make_unique<PolicyIndexCache>(
        std::make_unique<cache::P4lruArrayPolicy<DbKey, index::RecordAddress,
                                                 1>>(entries, 0xB0));
}

}  // namespace

int main() {
    const std::size_t units = scaled(1u << 13);
    const std::size_t queries = scaled(120'000);
    std::uint64_t wrong_replies = 0;  // over every run below; must stay 0

    // --- (a) throughput vs #threads, fixed database ---------------------
    {
        const std::uint64_t items = scaled(100'000);
        DbServer server(items, ServerCosts{});
        ConsoleTable t({"threads", "P4LRU3 KTPS", "Baseline KTPS",
                        "Naive KTPS", "P4LRU3/Baseline"});
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            SeriesIndexCache p3(2, units, 0xC1);
            auto p1 = baseline(2 * units * 3);
            const auto cfg = driver_config(threads, items, queries / 2);
            NaiveIndexCache naive;
            const auto r3 = run_driver(cfg, server, p3);
            const auto r1 = run_driver(cfg, server, *p1);
            const auto rn = run_driver(cfg, server, naive);
            wrong_replies +=
                r3.wrong_replies + r1.wrong_replies + rn.wrong_replies;
            t.add_row({std::to_string(threads),
                       ConsoleTable::num(r3.throughput_ktps, 1),
                       ConsoleTable::num(r1.throughput_ktps, 1),
                       ConsoleTable::num(rn.throughput_ktps, 1),
                       ConsoleTable::num(
                           r3.throughput_ktps / r1.throughput_ktps, 3)});
        }
        t.print("Figure 10(a): LruIndex throughput vs #threads");
    }

    // --- (b) speedup over naive vs #items, 8 threads ---------------------
    {
        ConsoleTable t({"items", "P4LRU3 speedup", "Baseline speedup",
                        "P4LRU3 miss %", "Baseline miss %"});
        for (const std::uint64_t items :
             {scaled(50'000), scaled(100'000), scaled(200'000),
              scaled(400'000)}) {
            DbServer server(items, ServerCosts{});
            SeriesIndexCache p3(2, units, 0xC2);
            auto p1 = baseline(2 * units * 3);
            const auto cfg = driver_config(8, items, queries / 2);
            NaiveIndexCache naive;
            const auto r3 = run_driver(cfg, server, p3);
            const auto r1 = run_driver(cfg, server, *p1);
            const auto rn = run_driver(cfg, server, naive);
            wrong_replies +=
                r3.wrong_replies + r1.wrong_replies + rn.wrong_replies;
            t.add_row({std::to_string(items),
                       ConsoleTable::num(
                           r3.throughput_ktps / rn.throughput_ktps, 3),
                       ConsoleTable::num(
                           r1.throughput_ktps / rn.throughput_ktps, 3),
                       pct(r3.miss_rate), pct(r1.miss_rate)});
        }
        t.print("Figure 10(b): LruIndex speedup over Naive vs #items");
    }

    // --- (c) engine-mode axis over the same query stream ------------------
    bool all_match = true;
    std::vector<Metric> json;
    {
        const std::uint64_t items = scaled(100'000);
        DbServer server(items, ServerCosts{});
        LruIndexTarget::Config tcfg;
        tcfg.partitions = 8;
        tcfg.levels = 2;  // two pipelines, as on the paper's testbed
        tcfg.units_per_level =
            std::max<std::size_t>(units / tcfg.partitions, 8);
        tcfg.seed = 0xC1;
        trace::YcsbConfig wl;
        wl.items = items;
        wl.zipf_alpha = 0.9;
        wl.seed = 77;
        const auto ops = make_index_ops(wl, queries / 2);
        const auto make = [&] { return LruIndexTarget(server, tcfg); };
        replay::SpanOpSource source(ops);
        const auto modes =
            run_system_series_stream(make, source, engine_mode_axis());

        ConsoleTable t({"engine mode", "workers", "wall s", "Mops/s",
                        "miss %", "matches sequential"});
        for (const auto& m : modes) {
            wrong_replies += m.stats.wrong_replies;
            t.add_row({m.mode, std::to_string(m.workers),
                       ConsoleTable::num(m.wall_s, 3),
                       ConsoleTable::num(m.mops, 2),
                       pct(index_report(m.stats).miss_rate),
                       m.matches_sequential ? "yes" : "NO"});
        }
        t.print("Figure 10(c): LruIndex through the generic replay engine");
        all_match = append_mode_metrics(json, "YCSB/P4LRU3", modes);
        json.push_back({"YCSB/P4LRU3.miss_rate",
                        index_report(modes.front().stats).miss_rate,
                        "fraction"});
        std::printf(
            "Engine axis: inline + 2/4-worker sharded replays %s the\n"
            "sequential statistics bit for bit.\n",
            all_match ? "match" : "MISMATCH");
    }

    std::printf(
        "\nPaper shape: throughput scales near-linearly with threads\n"
        "(98.5 -> 644.8 KTPS over 1 -> 8); P4LRU3 edges the baseline by a\n"
        "few percent (up to 1.03x in (a), 1.08x in (b)); both beat Naive by\n"
        "1.2-1.4x. The gain is muted because YCSB's stochastic keys have\n"
        "weaker temporal locality than CAIDA traffic (paper Section 4.1).\n");
    const bool replies_ok = no_wrong_replies(wrong_replies);
    const bool wrote =
        write_bench_json("fig10_lruindex", all_match && replies_ok, json);
    return all_match && replies_ok && wrote ? 0 : 1;
}
