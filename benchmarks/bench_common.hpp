// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper's evaluation
// (Section 4) and prints the same rows/series. Scale: the paper replays
// 2.6e7-packet CAIDA traces against 2^16-2^17-unit cache arrays; these
// benches default to ~10x smaller traces and correspondingly smaller arrays
// so the whole suite finishes in minutes on a laptop. Set P4LRU_SCALE (e.g.
// 2.0) to grow packet counts and cache sizes proportionally.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/stats.hpp"
#include "p4lru/common/table.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/obs/exposition.hpp"
#include "p4lru/replay/affinity.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::bench {

/// Global scale knob from the environment (default 1.0).
inline double scale() {
    if (const char* s = std::getenv("P4LRU_SCALE")) {
        const double v = std::atof(s);
        if (v > 0) return v;
    }
    return 1.0;
}

inline std::size_t scaled(std::size_t base) {
    return static_cast<std::size_t>(static_cast<double>(base) * scale());
}

/// Default trace size (paper: 2.6e7; here ~1.2e6 per run at scale 1).
inline std::size_t default_packets() { return scaled(1'200'000); }

/// Make a CAIDA_n-like trace.
inline std::vector<PacketRecord> make_trace(std::size_t segments,
                                            std::uint64_t seed = 1,
                                            std::size_t packets = 0) {
    trace::TraceConfig cfg;
    cfg.seed = seed;
    cfg.total_packets = packets ? packets : default_packets();
    cfg.segments = segments;
    return trace::generate_trace(cfg);
}

/// The concurrency sweep of the testbed figures (CAIDA_1 .. CAIDA_60).
inline std::vector<std::size_t> concurrency_sweep() {
    return {1, 10, 20, 30, 40, 50, 60};
}

/// Policy factory for the comparative benches. Key/Value/Merge are template
/// parameters so the same list serves LruTable (FlowKey -> address,
/// replace) and LruMon (fingerprint -> bytes, accumulate).
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
struct PolicyFactory {
    using Ptr = std::unique_ptr<cache::ReplacementPolicy<Key, Value>>;

    static Ptr p4lru1(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 1, Merge>>(
            entries, seed);
    }
    static Ptr p4lru2(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 2, Merge>>(
            entries, seed);
    }
    static Ptr p4lru3(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 3, Merge>>(
            entries, seed);
    }
    static Ptr ideal(std::size_t entries) {
        return std::make_unique<cache::IdealLruPolicy<Key, Value, Merge>>(
            entries);
    }
    static Ptr timeout(std::size_t entries, std::uint32_t seed, TimeNs t) {
        return std::make_unique<cache::TimeoutPolicy<Key, Value, Merge>>(
            entries, seed, t);
    }
    static Ptr elastic(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::ElasticPolicy<Key, Value, Merge>>(
            entries, seed);
    }
    static Ptr coco(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::CocoPolicy<Key, Value, Merge>>(entries,
                                                                      seed);
    }
};

/// Percent formatting helper.
inline std::string pct(double v) { return ConsoleTable::num(v * 100.0, 2); }

/// The LruIndex benches' exit check over the wrong replies every run
/// counted: false (after saying so) unless there were none.
inline bool no_wrong_replies(std::uint64_t wrong_replies) {
    if (wrong_replies == 0) return true;
    std::printf("\nWRONG REPLIES (BUG): %llu; the server must always return "
                "the queried key's record\n",
                static_cast<unsigned long long>(wrong_replies));
    return false;
}

// ---------------------------------------------------------------------------
// Timing harness: every figure bench reports wall time and Mops/s per series
// so the perf trajectory is visible run over run.

/// Monotonic wall-clock stopwatch.
class StopWatch {
  public:
    StopWatch() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/// Accumulates per-series throughput rows and prints them as one table.
class TimingReport {
  public:
    void add(std::string label, std::uint64_t ops, double seconds) {
        rows_.push_back({std::move(label), {ops, seconds}});
    }

    void print(const std::string& caption) const {
        ConsoleTable t({"series", "ops", "wall s", "Mops/s"});
        for (const auto& [label, tp] : rows_) {
            t.add_row({label, std::to_string(tp.ops),
                       ConsoleTable::num(tp.seconds, 3),
                       ConsoleTable::num(tp.mops(), 2)});
        }
        t.print(caption);
    }

    [[nodiscard]] const auto& rows() const noexcept { return rows_; }

  private:
    std::vector<std::pair<std::string, stats::Throughput>> rows_;
};

/// One independent, deterministic figure-series evaluation: replays a trace
/// against one policy configuration and yields a scalar (e.g. miss rate).
struct SeriesJob {
    std::string label;
    std::uint64_t ops = 0;  ///< packets/queries the job replays (reporting)
    std::function<double()> fn;
};

struct SeriesResult {
    double value = 0.0;
    double seconds = 0.0;
};

/// Evaluate all jobs, concurrently when the machine has spare cores (each
/// job owns its policy/system instance and fixed seeds, so results are
/// deterministic and land at the job's index). Single-core machines run
/// inline — thread overhead would only slow the suite down.
inline std::vector<SeriesResult> run_series(
    const std::vector<SeriesJob>& jobs, TimingReport* report = nullptr) {
    std::vector<SeriesResult> results(jobs.size());
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        std::min<std::size_t>(jobs.size(), hw > 1 ? hw : 1);
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            StopWatch w;
            results[i].value = jobs[i].fn();
            results[i].seconds = w.seconds();
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t) {
            pool.emplace_back([&] {
                while (true) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= jobs.size()) return;
                    StopWatch w;
                    results[i].value = jobs[i].fn();
                    results[i].seconds = w.seconds();
                }
            });
        }
        for (auto& th : pool) th.join();
    }
    if (report) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            report->add(jobs[i].label, jobs[i].ops, results[i].seconds);
        }
    }
    return results;
}

// ---------------------------------------------------------------------------
// System-series engine harness (DESIGN.md §11): the fig09-11 testbed benches
// drive their system ReplayTargets through the shared replay engine along an
// engine-mode axis — the sequential reference first, then inline-batched and
// threaded-sharded runs — instead of bespoke process() loops.  The engine
// contract makes every axis point produce bit-identical statistics, which
// each point cross-checks against the sequential reference.

/// One point of the engine-mode axis.
struct EngineMode {
    std::string name;             ///< "sequential", "sharded_w4", ...
    std::size_t workers = 0;      ///< 0 = sequential (reference) replay
    replay::ShardedConfig cfg{};  ///< engine knobs when workers > 0
};

/// The sequential reference alone — for figure points that only need the
/// report, where re-running the whole axis would bloat the suite's runtime.
inline std::vector<EngineMode> sequential_axis() {
    return {EngineMode{"sequential", 0, {}}};
}

/// Full axis: sequential reference, one-worker inline batching, and
/// threaded-sharded runs at 2 and 4 workers.  Worker counts above the
/// affinity-mask CPU count still run (and still agree bit for bit); their
/// wall time then measures scheduling overhead rather than speedup, which
/// the JSON's hardware_threads field lets consumers discount.
inline std::vector<EngineMode> engine_mode_axis() {
    std::vector<EngineMode> axis = sequential_axis();
    for (const std::size_t w : {1u, 2u, 4u}) {
        replay::ShardedConfig cfg;
        cfg.shards = w;
        cfg.mode = w == 1 ? replay::Mode::kInline : replay::Mode::kThreaded;
        axis.push_back(
            {"sharded_w" + std::to_string(w), w, cfg});
    }
    return axis;
}

/// One engine-axis measurement of a system target.
template <typename Stats>
struct SystemModePoint {
    std::string mode;
    std::size_t workers = 0;  ///< 0 for the sequential reference
    Stats stats{};
    double wall_s = 0.0;
    double mops = 0.0;
    /// Whether this point's statistics equal the axis' sequential reference
    /// (vacuously true for the reference itself).  Anything but true is an
    /// engine-equivalence violation worth flagging in the bench output.
    bool matches_sequential = true;
};

/// Drive fresh `make()`-constructed targets over an op source, once per
/// axis entry, rewinding the source (seek(0)) before each mode so every
/// entry replays the identical op stream.  Each entry owns its own target
/// instance (identical seeds come from the factory), so the runs are
/// independent and any statistics drift between modes is the engine's
/// fault, not shared state's.  Source failures throw (benches have no
/// recovery story — a broken trace file should abort the figure loudly).
template <typename TargetFactory, typename Source>
auto run_system_series_stream(TargetFactory&& make, Source& source,
                              const std::vector<EngineMode>& axis) {
    using Target = std::decay_t<std::invoke_result_t<TargetFactory&>>;
    using Stats = typename Target::Stats;
    std::vector<SystemModePoint<Stats>> out;
    out.reserve(axis.size());
    Stats reference{};
    bool have_reference = false;
    for (const auto& m : axis) {
        Target target = make();
        SystemModePoint<Stats> pt;
        pt.mode = m.name;
        pt.workers = m.workers;
        if (Status st = source.seek(0); !st.is_ok()) {
            throw std::runtime_error(
                "run_system_series_stream: rewind failed: " + st.to_string());
        }
        const std::uint64_t ops = source.size();
        StopWatch w;
        if (m.workers == 0) {
            pt.stats =
                replay::replay_target_sequential_stream(target, source)
                    .value();
        } else {
            pt.stats = replay::replay_target_sharded_stream(target, source,
                                                            m.cfg)
                           .value()
                           .stats;
        }
        pt.wall_s = w.seconds();
        pt.mops = pt.wall_s > 0.0
                      ? static_cast<double>(ops) / pt.wall_s / 1e6
                      : 0.0;
        if (m.workers == 0 && !have_reference) {
            reference = pt.stats;
            have_reference = true;
        } else if (have_reference) {
            pt.matches_sequential = pt.stats == reference;
        }
        out.push_back(std::move(pt));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Machine-readable output: every bench writes BENCH_<bench>.json into the
// working directory in perfbench's metric shape, through write_bench_json.

/// One named measurement, written as {"value", "unit"}.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Write BENCH_<bench>.json into the working directory:
///   {"bench", "scale", "hardware_threads", "correct",
///    "metrics": {name: {"value", "unit"}}}
/// hardware_threads is the affinity-aware CPU count: an N-worker row on
/// fewer CPUs measures scheduling overhead, not parallel speedup.  A
/// non-finite value is written as null so the file always parses.  Returns
/// false (after saying so) when the file cannot be written.
inline bool write_bench_json(const std::string& bench, bool correct,
                             const std::vector<Metric>& metrics) {
    const std::string path = "BENCH_" + bench + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"hardware_threads\": %zu,\n  \"correct\": %s,\n"
                 "  \"metrics\": {",
                 obs::json_escape(bench).c_str(), scale(),
                 replay::pinnable_cpus(), correct ? "true" : "false");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        char num[32] = "null";
        if (std::isfinite(m.value)) {
            std::snprintf(num, sizeof(num), "%.17g", m.value);
        }
        std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i ? "," : "", obs::json_escape(m.name).c_str(), num,
                     obs::json_escape(m.unit).c_str());
    }
    std::fprintf(f, "\n  }\n}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/// The metrics of one engine-axis sweep, `<label>.<mode>_mops` per point;
/// true when every point matched the sequential reference.
template <typename Stats>
bool append_mode_metrics(std::vector<Metric>& out, const std::string& label,
                         const std::vector<SystemModePoint<Stats>>& points) {
    bool all_match = true;
    for (const auto& p : points) {
        out.push_back({label + "." + p.mode + "_mops", p.mops, "Mops/s"});
        all_match &= p.matches_sequential;
    }
    return all_match;
}

}  // namespace p4lru::bench
