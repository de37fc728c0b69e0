// Micro-benchmarks (google-benchmark): per-operation cost of every layer —
// the behavioural P4LRU unit, the arithmetic-encoded units, the full
// pipeline-model program (orders of magnitude slower: it interprets each
// stage, which is the point — it is a checker, not a fast path), the policy
// implementations, and the sketches.
//
// After the google-benchmark suite (skippable with P4LRU_SKIP_GBENCH=1), the
// trace-replay harness prices the replay engine's axes on the default
// 1.2M-packet trace — worker count, storage layout, scan kernel,
// scrubber, checkpointing, obs and trace source — and writes
// BENCH_micro_ops.json into the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/cache/policy.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/p4lru_encoded.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/core/simd/scan_kernels.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/pipeline/p4lru3_program.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/sketch/countmin.hpp"
#include "p4lru/sketch/towersketch.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"

namespace {

using namespace p4lru;

std::vector<std::uint32_t> keys(std::size_t n, std::uint32_t universe) {
    rng::Xoshiro256 rng(42);
    std::vector<std::uint32_t> out(n);
    for (auto& k : out) {
        k = static_cast<std::uint32_t>(rng.between(1, universe));
    }
    return out;
}

void BM_P4lru3Behavioural(benchmark::State& state) {
    core::P4lru<std::uint32_t, std::uint32_t, 3> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Behavioural);

void BM_P4lru3Encoded(benchmark::State& state) {
    core::P4lru3Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Encoded);

void BM_P4lru2Encoded(benchmark::State& state) {
    core::P4lru2Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru2Encoded);

// Default storage (the SoA slab for behavioural units).
void BM_ParallelArrayUpdate(benchmark::State& state) {
    core::ParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                        std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdate)->Arg(1 << 10)->Arg(1 << 16);

// Same array pinned to the AoS reference layout — the head-to-head for the
// layout split.
void BM_ParallelArrayUpdateAos(benchmark::State& state) {
    core::AosParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                           std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdateAos)->Arg(1 << 10)->Arg(1 << 16);

void BM_PipelineProgramUpdate(benchmark::State& state) {
    pipeline::P4lru3PipelineCache cache(1u << 10, 7,
                                        pipeline::ValueMode::kReadCache);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_PipelineProgramUpdate);

void BM_IdealLruAccess(benchmark::State& state) {
    cache::IdealLruPolicy<std::uint32_t, std::uint32_t> lru(
        static_cast<std::size_t>(state.range(0)));
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lru.access(ks[i++ & 4095], 1, 0));
    }
}
BENCHMARK(BM_IdealLruAccess)->Arg(1 << 10)->Arg(1 << 16);

void BM_TimeoutPolicyAccess(benchmark::State& state) {
    cache::TimeoutPolicy<std::uint32_t, std::uint32_t> p(1 << 14, 7,
                                                         kMillisecond);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    TimeNs now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(p.access(ks[i++ & 4095], 1, now));
        now += 100;
    }
}
BENCHMARK(BM_TimeoutPolicyAccess);

void BM_TowerSketchAdd(benchmark::State& state) {
    sketch::TowerSketch<std::uint32_t> tower(
        {{1u << 16, 8}, {1u << 15, 16}}, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tower.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_TowerSketchAdd);

void BM_CountMinAdd(benchmark::State& state) {
    sketch::CountMin<std::uint32_t> cm(1u << 16, 2, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cm.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_CountMinAdd);

void BM_Crc32FlowKey(benchmark::State& state) {
    FlowKey f;
    f.src_ip = 0x0A000001;
    f.dst_ip = 0xC0A80001;
    f.src_port = 1234;
    f.dst_port = 443;
    f.proto = 6;
    const hash::FlowHasher h(7, 1u << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.slot(f));
        f.src_port++;
    }
}
BENCHMARK(BM_Crc32FlowKey);

// ---------------------------------------------------------------------------
// Trace-replay throughput: one table of priced rows over the default bench
// trace.  Every row replays the same ops into a fresh cache of the same
// seed, so its statistics must equal the per-op reference and only the wall
// time may move; the first row of each group is the one the others are
// priced against.  A row that prices a mechanism (scrubber, checkpoint,
// obs) also counts how often the mechanism engaged: a count of
// zero means the row measured nothing.  Either failure makes the run exit 1.

using Unit = core::P4lru<FlowKey, std::uint32_t, 3>;
using SoaCache = core::ParallelCache<Unit, FlowKey, std::uint32_t>;
using AosCache = core::AosParallelCache<Unit, FlowKey, std::uint32_t>;
using ReplaySpan = std::span<const replay::ReplayOp<FlowKey, std::uint32_t>>;

constexpr std::uint32_t kSeed = 0xE1;

/// One run of a row: its statistics, and how often the priced mechanism
/// engaged.
struct Run {
    replay::ReplayStats stats;
    std::uint64_t fires = 0;
};

struct Row {
    std::string group;
    std::string name;
    /// Metric name of the mechanism's engagement count; empty for rows
    /// that price no mechanism.
    std::string fires_metric;
    std::function<Run()> run;
};

/// A row's measurement over kReps runs.
struct Priced {
    double seconds = 0.0;     ///< best wall time (the floor is the signal)
    std::uint64_t fires = 0;  ///< fewest engagements of any run
    bool identical = true;    ///< every run's stats equal the reference
};

Priced best_of(const Row& row, const replay::ReplayStats& reference) {
    constexpr int kReps = 3;
    Priced p;
    for (int rep = 0; rep < kReps; ++rep) {
        bench::StopWatch w;
        const Run r = row.run();
        const double secs = w.seconds();
        if (rep == 0 || secs < p.seconds) p.seconds = secs;
        p.fires = rep == 0 ? r.fires : std::min(p.fires, r.fires);
        p.identical = p.identical && r.stats == reference;
    }
    return p;
}

/// `shards` workers: the one-shard inline engine, or the threaded engine.
replay::ShardedConfig engine(std::size_t shards) {
    replay::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.mode = shards == 1 ? replay::Mode::kInline : replay::Mode::kThreaded;
    return cfg;
}

/// Engine replay of `ops` into a fresh `Cache` under `cfg`.
template <typename Cache = SoaCache>
replay::ShardedReport engine_run(ReplaySpan ops, std::size_t units,
                                 const replay::ShardedConfig& cfg) {
    Cache cache(units, kSeed);
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource source(ops);
    return replay::replay_target_sharded_stream(target, source, cfg).value();
}

/// The one-op-at-a-time reference replay of `ops`.
replay::ReplayStats per_op_run(ReplaySpan ops, std::size_t units) {
    SoaCache cache(units, kSeed);
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource source(ops);
    return replay::replay_target_sequential_stream(target, source).value();
}

bool run_replay_throughput() {
    const std::size_t units = bench::scaled(1u << 16);
    const auto trace = bench::make_trace(60, 42);
    const auto ops = replay::ops_from_packets(trace);
    const ReplaySpan span(ops);
    // The file-backed sources need the trace on disk in P4LRUTRC form.
    const std::string trace_path =
        (std::filesystem::temp_directory_path() / "p4lru_bench_trace.bin")
            .string();
    trace::write_trace(trace_path, trace);

    // Scrub every 64k ops and checkpoint every 256 blocks, or more often
    // when the trace is too short for five of each, so both priced rows
    // fire at every P4LRU_SCALE.
    const replay::ShardedConfig threaded = engine(4);
    const std::uint64_t scrub_every =
        std::clamp<std::uint64_t>(ops.size() / 5, 1, 1u << 16);
    const std::uint64_t blocks =
        (ops.size() + threaded.batch_ops - 1) / threaded.batch_ops;
    const std::uint64_t ckpt_every = std::clamp<std::uint64_t>(
        blocks > 0 ? (blocks - 1) / 5 : 0, 1, 256);

    const auto inline_soa = [&] {
        return Run{engine_run(span, units, engine(1)).stats};
    };
    const auto threaded_soa = [&] {
        return Run{engine_run(span, units, threaded).stats};
    };
    std::vector<Row> rows = {
        {"engine", "per_op", "", [&] { return Run{per_op_run(span, units)}; }}};
    for (const std::size_t w : {1u, 2u, 4u, 8u}) {
        rows.push_back({"engine", "w" + std::to_string(w), "", [&, w] {
                            return Run{
                                engine_run(span, units, engine(w)).stats};
                        }});
    }
    rows.insert(rows.end(), {
        {"layout", "aos", "",
         [&] {
             return Run{engine_run<AosCache>(span, units, engine(1)).stats};
         }},
        {"layout", "soa", "", inline_soa},
        {"kernel", "scalar", "",
         [&] {
             core::simd::set_kernel_override(core::simd::ScanKernel::kScalar);
             const Run r = inline_soa();
             core::simd::clear_kernel_override();
             return r;
         }},
        {"kernel", "dispatched", "", inline_soa},
        {"scrub", "off", "", inline_soa},
        {"scrub", "on", "passes",
         [&] {
             replay::ShardedConfig cfg = engine(1);
             cfg.robust.scrub_every = scrub_every;
             const auto rep = engine_run(span, units, cfg);
             return Run{rep.stats, rep.scrub.scanned / units};
         }},
        {"checkpoint", "off", "", threaded_soa},
        {"checkpoint", "on", "snapshots",
         [&] {
             SoaCache cache(units, kSeed);
             replay::CacheReplayTarget target(cache);
             replay::SpanOpSource source(span);
             std::uint64_t snapshots = 0;
             const auto rep =
                 replay::replay_target_checkpointed_stream(
                     target, source, threaded, ckpt_every,
                     [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                         ++snapshots;
                         benchmark::DoNotOptimize(cp.state.data());
                     })
                     .value();
             return Run{rep.stats, snapshots};
         }},
        {"obs", "off", "", threaded_soa},
        {"obs", "on", "batches_instrumented",
         [&] {
             obs::Registry reg;
             replay::ShardedConfig cfg = threaded;
             cfg.metrics = &reg;
             const auto rep = engine_run(span, units, cfg);
             const obs::Snapshot snap = reg.snapshot();
             const std::uint64_t* batches =
                 snap.counter("replay_batches_applied");
             return Run{rep.stats, batches ? *batches : 0};
         }},
    });
    for (const std::string source : {"vector", "mmap"}) {
        rows.push_back({"source", source, "", [&, source] {
            std::unique_ptr<trace::TraceSource> src;
            if (source == "vector") {
                src = std::make_unique<trace::VectorSource>(
                    std::span<const PacketRecord>(trace));
            } else {
                src = trace::MmapSource::open(trace_path).value();
            }
            auto stream = replay::packet_op_source(*src);
            SoaCache cache(units, kSeed);
            replay::CacheReplayTarget target(cache);
            return Run{replay::replay_target_sharded_stream(target, stream,
                                                            engine(1))
                           .value()
                           .stats};
        }});
    }

    const core::simd::CpuFeatures feat = core::simd::cpu_features();
    std::printf("scan kernel: %s dispatched (sse2=%d avx2=%d neon=%d), "
                "%zu usable hardware threads\n",
                core::simd::kernel_name(core::simd::dispatched_kernel()),
                feat.sse2, feat.avx2, feat.neon, replay::pinnable_cpus());

    const replay::ReplayStats reference = per_op_run(span, units);
    ConsoleTable table({"group", "row", "wall s", "Mops/s", "speedup",
                        "fires", "stats"});
    std::vector<bench::Metric> json = {
        {"trace.ops", static_cast<double>(span.size()), "count"},
        {"cache.units", static_cast<double>(units), "count"},
        {"cache.hit_rate", reference.hit_rate(), "fraction"}};
    bool correct = true;
    double first_seconds = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        const Priced p = best_of(row, reference);
        if (i == 0 || row.group != rows[i - 1].group) {
            first_seconds = p.seconds;
        }
        const bool fired = row.fires_metric.empty() || p.fires > 0;
        correct = correct && p.identical && fired;
        const double mops = static_cast<double>(span.size()) / p.seconds / 1e6;
        table.add_row(
            {row.group, row.name, ConsoleTable::num(p.seconds, 3),
             ConsoleTable::num(mops, 2),
             ConsoleTable::num(first_seconds / p.seconds, 2),
             row.fires_metric.empty()
                 ? "-"
                 : std::to_string(p.fires) + (fired ? "" : " (BUG)"),
             p.identical ? "IDENTICAL" : "DIVERGED (BUG)"});
        json.push_back({row.group + "." + row.name + "_mops", mops, "Mops/s"});
        if (!row.fires_metric.empty()) {
            json.push_back({row.group + "." + row.fires_metric,
                            static_cast<double>(p.fires), "count"});
        }
    }
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);

    table.print("Replay throughput, speedup vs each group's first row (" +
                std::to_string(span.size()) + " ops, " +
                std::to_string(units) + " units, hit " +
                bench::pct(reference.hit_rate()) + "%, scrub every " +
                std::to_string(scrub_every) + " ops, checkpoint every " +
                std::to_string(ckpt_every) + " blocks)");
    std::printf("every row's statistics vs the per-op reference, and every "
                "priced mechanism fired: %s\n",
                correct ? "yes" : "NO (BUG)");
    return bench::write_bench_json("micro_ops", correct, json) && correct;
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    const char* skip = std::getenv("P4LRU_SKIP_GBENCH");
    if (!(skip && skip[0] == '1')) {
        benchmark::RunSpecifiedBenchmarks();
    }
    benchmark::Shutdown();
    return run_replay_throughput() ? 0 : 1;
}
