// Figure 16 — LruIndex parameter experiment (Section 4.2.2).
//   (a) miss rate vs #connection levels   (b) LRU similarity vs #levels
//   (c) miss rate vs memory               (d) miss rate vs query latency dT
// Series: P4LRU1 / P4LRU2 / P4LRU3 series-connected caches (and LRU_IDEAL
// in (c)/(d) as the bound).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "p4lru/cache/similarity.hpp"
#include "p4lru/trace/ycsb.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lruindex;

namespace {

/// Series cache instrumented with the LRU-similarity tracker: promotes and
/// inserts count as accesses; only entries pushed out of the LAST level are
/// true evictions (level-to-level moves keep the key cached).
template <std::size_t N>
class TrackedSeries final : public IndexCache {
  public:
    TrackedSeries(std::size_t levels, std::size_t units, std::uint32_t seed,
                  std::size_t max_accesses)
        : cache_(levels, units, seed), tracker_(max_accesses) {}

    CacheHeader query(DbKey key) const override { return cache_.query(key); }

    void reply(DbKey key, index::RecordAddress addr, const CacheHeader& hdr,
               TimeNs /*now*/) override {
        if (hdr.hit()) {
            cache_.series().reply_promote(key, addr, hdr.cached_flag);
            tracker_.on_access(key);
        } else {
            const auto out = cache_.series().reply_insert(key, addr);
            tracker_.on_access(key);
            if (out) tracker_.on_evict(out->first);
        }
    }

    [[nodiscard]] double similarity() const {
        return tracker_.similarity();
    }

  private:
    BasicSeriesIndexCache<N> cache_;
    mutable cache::SimilarityTracker<DbKey> tracker_;
};

/// Summed over every driver run; must stay 0.
std::uint64_t wrong_replies = 0;

struct Outcome {
    double miss = 0;
    double similarity = 0;
};

/// One closed-loop run of the figure's workload; returns the miss rate.
double drive(DbServer& server, IndexCache& cache, std::size_t queries) {
    DriverConfig cfg;
    cfg.threads = 8;
    cfg.queries = queries;
    cfg.workload.items = server.items();
    cfg.workload.zipf_alpha = 0.9;
    cfg.workload.seed = 160;
    const auto r = run_driver(cfg, server, cache);
    wrong_replies += r.wrong_replies;
    return r.miss_rate;
}

template <std::size_t N>
Outcome run_series(DbServer& server, std::size_t levels,
                   std::size_t units_per_level, std::size_t queries) {
    TrackedSeries<N> cache(levels, units_per_level, 0x160,
                           queries + levels + 8);
    const double miss = drive(server, cache, queries);
    return {miss, cache.similarity()};
}

double run_ideal(DbServer& server, std::size_t entries,
                 std::size_t queries) {
    PolicyIndexCache cache(
        std::make_unique<cache::IdealLruPolicy<DbKey,
                                               index::RecordAddress>>(
            entries));
    return drive(server, cache, queries);
}

}  // namespace

int main() {
    const std::uint64_t items = scaled(200'000);
    const std::size_t queries = scaled(100'000);
    const std::size_t base_units = scaled(1u << 12);  // per level

    // --- (a)+(b): sweep connection levels at fixed total entries ----------
    {
        DbServer server(items, ServerCosts{});
        ConsoleTable a({"levels", "P4LRU1 %", "P4LRU2 %", "P4LRU3 %"});
        ConsoleTable b({"levels", "P4LRU1 sim", "P4LRU2 sim", "P4LRU3 sim"});
        const std::size_t total_units = base_units * 4;
        for (const std::size_t levels : {1u, 2u, 4u, 8u}) {
            const std::size_t per_level = total_units / levels;
            const auto p1 =
                run_series<1>(server, levels, per_level * 3, queries);
            const auto p2 = run_series<2>(server, levels,
                                          per_level * 3 / 2, queries);
            const auto p3 = run_series<3>(server, levels, per_level, queries);
            a.add_row({std::to_string(levels), pct(p1.miss), pct(p2.miss),
                       pct(p3.miss)});
            b.add_row({std::to_string(levels),
                       ConsoleTable::num(p1.similarity, 4),
                       ConsoleTable::num(p2.similarity, 4),
                       ConsoleTable::num(p3.similarity, 4)});
        }
        a.print(
            "Figure 16(a): LruIndex miss rate vs #connection levels (equal "
            "total entries)");
        b.print("Figure 16(b): LruIndex LRU similarity vs #connection levels");
    }

    // --- (c): sweep memory at 4 levels -------------------------------------
    {
        DbServer server(items, ServerCosts{});
        ConsoleTable c({"total entries", "LRU_IDEAL %", "P4LRU1 %",
                        "P4LRU2 %", "P4LRU3 %"});
        for (const double mult : {0.125, 0.25, 0.5, 1.0}) {
            const auto units =
                static_cast<std::size_t>(base_units * mult);
            const std::size_t entries = units * 3 * 4;
            const auto p1 = run_series<1>(server, 4, units * 3, queries);
            const auto p2 = run_series<2>(server, 4, units * 3 / 2, queries);
            const auto p3 = run_series<3>(server, 4, units, queries);
            c.add_row({std::to_string(entries),
                       pct(run_ideal(server, entries, queries)),
                       pct(p1.miss), pct(p2.miss), pct(p3.miss)});
        }
        c.print("Figure 16(c): LruIndex miss rate vs memory (4 levels)");
    }

    // --- (d): sweep server query latency -----------------------------------
    {
        ConsoleTable d({"dT us (index cost)", "LRU_IDEAL %", "P4LRU1 %",
                        "P4LRU2 %", "P4LRU3 %"});
        for (const TimeNs hop : {1'000u, 3'000u, 9'000u, 27'000u}) {
            ServerCosts costs;
            costs.per_index_hop = hop;
            DbServer server(items, costs);
            const auto p1 =
                run_series<1>(server, 4, base_units * 3, queries);
            const auto p2 =
                run_series<2>(server, 4, base_units * 3 / 2, queries);
            const auto p3 = run_series<3>(server, 4, base_units, queries);
            d.add_row({std::to_string(hop * 4 / 1000),
                       pct(run_ideal(server, base_units * 12, queries)),
                       pct(p1.miss), pct(p2.miss), pct(p3.miss)});
        }
        d.print("Figure 16(d): LruIndex miss rate vs query latency");
    }

    // --- Extension: round-trip protocol vs naive single-pass injection ----
    {
        trace::YcsbConfig wl;
        wl.items = items;
        wl.zipf_alpha = 0.9;
        wl.seed = 161;
        ConsoleTable t({"mode", "hit %", "duplicate keys %"});
        {
            SeriesIndexCache s(4, base_units, 0x161);
            trace::YcsbWorkload w(wl);
            std::size_t hits = 0;
            for (std::size_t i = 0; i < queries; ++i) {
                const DbKey k = w.next().key;
                const CacheHeader hdr = s.query(k);
                hits += hdr.hit() ? 1 : 0;
                s.reply(k, k + 1, hdr, 0);
            }
            t.add_row({"round-trip (paper)",
                       pct(static_cast<double>(hits) / queries),
                       pct(s.series().duplicate_fraction())});
        }
        {
            SeriesIndexCache s(4, base_units, 0x161);
            trace::YcsbWorkload w(wl);
            std::size_t hits = 0;
            for (std::size_t i = 0; i < queries; ++i) {
                hits += s.series().naive_inject(w.next().key, 1).hit ? 1 : 0;
            }
            t.add_row({"naive single-pass",
                       pct(static_cast<double>(hits) / queries),
                       pct(s.series().duplicate_fraction())});
        }
        t.print(
            "Extension: series-connection ablation — the round-trip "
            "protocol avoids duplicate entries (Section 3.2)");
    }

    std::printf(
        "\nPaper shape: P4LRU3 always lowest; P4LRU2/3 clearly beat P4LRU1;\n"
        "more levels raise P4LRU1/2 similarity while P4LRU3's similarity\n"
        "drops slightly (the paper's argument for defaulting to 4 levels);\n"
        "P4LRU3 stays closest to LRU_IDEAL across memory and latency.\n");
    return no_wrong_replies(wrong_replies) ? 0 : 1;
}
