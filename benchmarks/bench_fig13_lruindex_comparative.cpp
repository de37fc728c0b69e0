// Figure 13 — LruIndex comparative experiment (Section 4.2.1): the same
// query/reply protocol driven over each replacement policy.
//   (a) cache miss rate vs cache memory
//   (b) cache miss rate vs query latency dT of the database server
//
// The bench exits 1 unless P4LRU3 misses less than Timeout, Elastic and Coco
// in every row of both panels, or if any reply is wrong.
//
// Every cell drives its own closed-loop simulation against a shared
// read-only DbServer (serve() is const), so cells are evaluated via
// bench::run_series — concurrently on multicore machines — and per-series
// timings (wall time, Mops/s over the query count) print after each table.
#include <atomic>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lruindex;

namespace {

using Factory = PolicyFactory<DbKey, index::RecordAddress>;

/// Summed over every driver run (cells run concurrently); must stay 0.
std::atomic<std::uint64_t> wrong_replies{0};

double miss_rate(DbServer& server, std::unique_ptr<IndexCache> cache,
                 std::size_t queries) {
    DriverConfig cfg;
    cfg.threads = 8;
    cfg.queries = queries;
    cfg.workload.items = server.items();
    cfg.workload.zipf_alpha = 0.9;
    cfg.workload.seed = 130;
    const auto r = run_driver(cfg, server, *cache);
    wrong_replies += r.wrong_replies;
    return r.miss_rate;
}

std::unique_ptr<IndexCache> wrap(Factory::Ptr policy) {
    return std::make_unique<PolicyIndexCache>(std::move(policy));
}

double tuned_timeout_miss(DbServer& server, std::size_t entries,
                          std::size_t queries) {
    double best = 1.0;
    for (const TimeNs t :
         {3 * kMillisecond, 10 * kMillisecond, 30 * kMillisecond,
          100 * kMillisecond}) {
        best = std::min(
            best, miss_rate(server, wrap(Factory::timeout(entries, 0xF1, t)),
                            queries));
    }
    return best;
}

/// The five policy columns of one row. `seed` salts the policy hashes (the
/// original bench used 0xF1 for (a) and 0xF2 for (b)).
std::vector<SeriesJob> row_jobs(DbServer& server, const std::string& label,
                                std::size_t entries, std::size_t queries,
                                std::uint32_t seed) {
    const auto n = static_cast<std::uint64_t>(queries);
    return {
        {label + "/P4LRU3", n,
         [&server, entries, queries, seed] {
             // The paper's LruIndex uses the series connection; 4 levels.
             auto p3 = std::make_unique<SeriesIndexCache>(
                 4, std::max<std::size_t>(1, entries / 12), seed);
             return miss_rate(server, std::move(p3), queries);
         }},
        {label + "/Timeout", 4 * n,
         [&server, entries, queries] {
             return tuned_timeout_miss(server, entries, queries);
         }},
        {label + "/Elastic", n,
         [&server, entries, queries, seed] {
             return miss_rate(server, wrap(Factory::elastic(entries, seed)),
                              queries);
         }},
        {label + "/Coco", n,
         [&server, entries, queries, seed] {
             return miss_rate(server, wrap(Factory::coco(entries, seed)),
                              queries);
         }},
        {label + "/LRU_IDEAL", n,
         [&server, entries, queries] {
             return miss_rate(server, wrap(Factory::ideal(entries)), queries);
         }},
    };
}

/// The figure's shape, row by row: P4LRU3 misses less than Timeout,
/// Elastic and Coco (LRU_IDEAL is the bound, which P4LRU3 may edge).
bool p4lru3_beats_baselines(const std::vector<SeriesResult>& res,
                            const char* panel) {
    static constexpr const char* kBaselines[] = {"Timeout", "Elastic",
                                                 "Coco"};
    bool ok = true;
    for (std::size_t r = 0; r * 5 < res.size(); ++r) {
        for (std::size_t c = 1; c <= 3; ++c) {
            if (res[r * 5].value < res[r * 5 + c].value) continue;
            std::printf("\nSHAPE VIOLATED: Figure 13(%s) row %zu: P4LRU3 "
                        "%s%% >= %s %s%%\n",
                        panel, r, pct(res[r * 5].value).c_str(),
                        kBaselines[c - 1], pct(res[r * 5 + c].value).c_str());
            ok = false;
        }
    }
    return ok;
}

}  // namespace

int main() {
    bool shape_ok = true;
    const std::uint64_t items = scaled(200'000);
    const std::size_t queries = scaled(100'000);
    const std::size_t base_entries = scaled(3 * (1u << 12));

    // --- (a) miss rate vs memory ------------------------------------------
    {
        DbServer server(items, ServerCosts{});
        const std::vector<double> mults = {0.5, 1.0, 2.0, 4.0};
        std::vector<SeriesJob> jobs;
        std::vector<std::size_t> row_entries;
        for (const double mult : mults) {
            const auto entries =
                static_cast<std::size_t>(base_entries * mult);
            row_entries.push_back(entries);
            const auto row = row_jobs(server, std::to_string(entries),
                                      entries, queries, 0xF1);
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
        t.print("Figure 13(a): LruIndex miss rate vs memory");
        shape_ok &= p4lru3_beats_baselines(res, "a");
        timing.print("Figure 13(a): per-series driver timings");
    }

    // --- (b) miss rate vs server query latency dT --------------------------
    {
        const std::vector<TimeNs> hops = {1'000u, 3'000u, 9'000u, 27'000u};
        // One shared server per hop cost, alive for the whole section.
        std::vector<std::unique_ptr<DbServer>> servers;
        for (const TimeNs hop : hops) {
            ServerCosts costs;
            costs.per_index_hop = hop;
            servers.push_back(std::make_unique<DbServer>(items, costs));
        }
        std::vector<SeriesJob> jobs;
        for (std::size_t h = 0; h < hops.size(); ++h) {
            const TimeNs approx_dt =
                hops[h] * 4;  // ~tree height hops per indexed query
            const auto row =
                row_jobs(*servers[h],
                         "dT" + std::to_string(approx_dt / 1000) + "us",
                         base_entries, queries, 0xF2);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        TimingReport timing;
        const auto res = run_series(jobs, &timing);

        ConsoleTable t({"dT us (index cost)", "P4LRU3 %", "Timeout %",
                        "Elastic %", "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < hops.size(); ++r) {
            t.add_row({std::to_string(hops[r] * 4 / 1000),
                       pct(res[r * 5 + 0].value), pct(res[r * 5 + 1].value),
                       pct(res[r * 5 + 2].value), pct(res[r * 5 + 3].value),
                       pct(res[r * 5 + 4].value)});
        }
        t.print("Figure 13(b): LruIndex miss rate vs query latency");
        shape_ok &= p4lru3_beats_baselines(res, "b");
        timing.print("Figure 13(b): per-series driver timings");
    }

    std::printf(
        "\nPaper shape: Coco > Elastic > Timeout > P4LRU3; P4LRU3 cuts the\n"
        "miss rate by up to 33.3/23.6/10.4%% in (a) and 23.7/19.0/9.8%% in\n"
        "(b). Gains are smaller than LruTable's because YCSB keys have\n"
        "weaker temporal locality.\n");
    return no_wrong_replies(wrong_replies.load()) && shape_ok ? 0 : 1;
}
