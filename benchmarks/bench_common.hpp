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
#include "p4lru/core/simd/scan_kernels.hpp"
#include "p4lru/replay/affinity.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::bench {

/// Escape a string for embedding inside a JSON string literal.  The bench
/// writers emit JSON via raw fprintf, so every %s-substituted field must go
/// through here — a kernel name or series label containing `"` or `\` (or a
/// control byte from a corrupted env var) would otherwise produce a file no
/// JSON parser accepts.
inline std::string json_escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

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
// so the perf trajectory is visible run over run, and bench_micro_ops emits
// the same numbers machine-readably (BENCH_micro_ops.json).

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
// Machine-readable benchmark output (BENCH_*.json).

/// One replay-throughput series of bench_micro_ops.  Schema 3 tags each
/// series with the unit-storage layout (AoS-vs-SoA speedup tracked run over
/// run), the scan kernel that executed it, and the update path (per-op vs
/// batched).
struct ReplayJsonSeries {
    std::string name;        ///< "sequential" / "sharded" / "kernel" / ...
    std::string layout;      ///< "aos" / "soa" (UnitStorage::layout_name())
    std::size_t workers = 0; ///< shard count (0 for sequential)
    std::string mode;        ///< "sequential" / "threaded" / "inline" / ...
    std::string kernel;      ///< scan kernel active for the series
    std::string path;        ///< "per_op" / "batched"
    double wall_s = 0.0;
    double mops = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/// The number of hardware threads the process can actually use — the
/// affinity-mask-aware count, not hardware_concurrency() (which ignores
/// taskset/cgroup masks and may return 0).  Series interpretation depends
/// on it: an N-worker "threaded" row on a 1-CPU machine measures scheduling
/// overhead, not parallel speedup.
inline std::size_t usable_hardware_threads() {
    return replay::pinnable_cpus();
}

/// Emit the throughput baseline consumed by later PRs' perf tracking.
/// Schema 3: top-level scan-kernel identity (dispatched kernel + CPU
/// features) and per-series kernel/path tags.
inline bool write_replay_json(const std::string& path, std::size_t packets,
                              std::size_t units, double scale_value,
                              const std::vector<ReplayJsonSeries>& series) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const core::simd::CpuFeatures feat = core::simd::cpu_features();
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_ops_replay\",\n"
                 "  \"schema\": 3,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"packets\": %zu,\n"
                 "  \"units\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"kernel\": \"%s\",\n"
                 "  \"cpu_features\": {\"sse2\": %s, \"avx2\": %s, "
                 "\"neon\": %s},\n"
                 "  \"series\": [\n",
                 scale_value, packets, units, usable_hardware_threads(),
                 json_escape(core::simd::kernel_name(
                                 core::simd::dispatched_kernel()))
                     .c_str(),
                 feat.sse2 ? "true" : "false", feat.avx2 ? "true" : "false",
                 feat.neon ? "true" : "false");
    for (std::size_t i = 0; i < series.size(); ++i) {
        const auto& s = series[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"layout\": \"%s\", \"workers\": %zu, "
            "\"mode\": \"%s\", \"kernel\": \"%s\", \"path\": \"%s\", "
            "\"wall_s\": %.6f, \"mops\": %.3f, \"ops\": %llu, "
            "\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu}%s\n",
            json_escape(s.name).c_str(), json_escape(s.layout).c_str(),
            s.workers, json_escape(s.mode).c_str(),
            json_escape(s.kernel).c_str(), json_escape(s.path).c_str(),
            s.wall_s, s.mops,
            static_cast<unsigned long long>(s.ops),
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            static_cast<unsigned long long>(s.evictions),
            i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

/// One engine-mode row of a system testbed bench (BENCH_fig*.json): a
/// figure series replayed under one engine mode, with the series' headline
/// metric and the equivalence verdict against the sequential reference.
struct SystemJsonSeries {
    std::string series;       ///< figure series label, e.g. "CAIDA60/P4LRU3"
    std::string mode;         ///< engine-axis entry name
    std::size_t workers = 0;  ///< 0 for the sequential reference
    std::uint64_t ops = 0;
    double wall_s = 0.0;
    double mops = 0.0;
    bool matches_sequential = true;
    std::string metric_name;  ///< e.g. "miss_rate", "upload_kpps"
    double metric = 0.0;
};

/// Convert an engine-axis sweep into JSON rows under one series label.
/// `metric` maps the (merged, mode-invariant) statistics to the figure's
/// headline scalar, evaluated per point so a mismatch stays visible.
template <typename Stats, typename MetricFn>
void append_system_series(std::vector<SystemJsonSeries>& out,
                          const std::string& label, std::uint64_t ops,
                          const std::vector<SystemModePoint<Stats>>& points,
                          const std::string& metric_name, MetricFn metric) {
    for (const auto& p : points) {
        SystemJsonSeries row;
        row.series = label;
        row.mode = p.mode;
        row.workers = p.workers;
        row.ops = ops;
        row.wall_s = p.wall_s;
        row.mops = p.mops;
        row.matches_sequential = p.matches_sequential;
        row.metric_name = metric_name;
        row.metric = metric(p.stats);
        out.push_back(std::move(row));
    }
}

/// Emit a system testbed bench's engine-mode series (schema 1).
inline bool write_system_json(const std::string& path,
                              const std::string& bench,
                              const std::vector<SystemJsonSeries>& series) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"schema\": 1,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"series\": [\n",
                 json_escape(bench).c_str(), scale(),
                 usable_hardware_threads());
    for (std::size_t i = 0; i < series.size(); ++i) {
        const auto& s = series[i];
        std::fprintf(
            f,
            "    {\"series\": \"%s\", \"mode\": \"%s\", \"workers\": %zu, "
            "\"ops\": %llu, \"wall_s\": %.6f, \"mops\": %.3f, "
            "\"matches_sequential\": %s, \"%s\": %.6f}%s\n",
            json_escape(s.series).c_str(), json_escape(s.mode).c_str(),
            s.workers, static_cast<unsigned long long>(s.ops), s.wall_s,
            s.mops, s.matches_sequential ? "true" : "false",
            json_escape(s.metric_name).c_str(), s.metric,
            i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

}  // namespace p4lru::bench
