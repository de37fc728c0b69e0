// Standalone ThreadSanitizer smoke for the sharded replay engine: force the
// threaded path with more workers than cores and aggressive queue churn,
// then check the merged statistics against sequential replay. Built as its
// own binary (replay_tsan_smoke) so a `cmake -DP4LRU_SANITIZE=thread` build
// has a minimal, fast race-detector target; it also runs in plain builds as
// a cheap determinism check.  The odd rounds of the first set scrub on a
// 4096-op cadence, so each worker's per-range scrub(lo, hi) — the one
// target-plane call a worker makes besides apply and prefetch — runs
// concurrently with the other shards' applies under the race detector.
//
// A second set of rounds runs with checkpoint emission on a tight cadence,
// putting the snapshot quiesce protocol (snap_req/snap_ack/snap_release
// epochs, dispatcher plane reads while workers are parked) under the race
// detector.
//
// A third set drives a *system* ReplayTarget (LruMonTarget: per-partition
// sketch + policy + analyzer) through the same threaded engine, so the
// generic-target worker loop — batch apply into partition-owned hash maps,
// merged statistics, canonical state snapshots — is also raced.
//
// A final round runs the crash-recovery supervisor over the threaded
// engine: an injected mid-run crash stops the dispatch loop cooperatively
// (stop_requested polling while workers are parked at a quiesce), the
// durable store installs generations from the dispatcher thread, and the
// retry re-enters the whole threaded machinery — racing the supervisor's
// stop/restart seams that the plain rounds never reach.
//
// The obs rounds put the metrics plane itself under the race detector: an
// N-thread registry hammer (striped counters/histograms + get-or-create
// races) with a live background sampler reading snapshots concurrently,
// and one fully instrumented threaded replay whose report must stay
// bit-identical to the uninstrumented rounds.
//
// The streamed-source rounds feed the threaded engine from one MmapSource,
// rewound between rounds: the dispatcher decodes each batch from the
// mapping and hands it to the shard workers, so the decode buffer the
// source reuses across batches is raced against the workers' reads.
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/obs/sampler.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/supervisor.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "../checkpoint_util.hpp"
#include "../test_util.hpp"

int main() {
    using namespace p4lru;
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;

    trace::TraceConfig tcfg;
    tcfg.seed = 13;
    tcfg.total_packets = 100'000;
    tcfg.segments = 4;
    const auto trace = trace::generate_trace(tcfg);
    const auto ops = replay::ops_from_packets(trace);
    const auto span =
        std::span<const replay::ReplayOp<FlowKey, std::uint32_t>>(ops);

    Cache seq_cache(1024, 0x7A);
    const auto seq = testutil::cache_sequential(seq_cache, span);

    replay::ShardedConfig cfg;
    cfg.shards = 8;
    cfg.batch_ops = 32;
    cfg.queue_batches = 4;
    cfg.mode = replay::Mode::kThreaded;

    for (int round = 0; round < 5; ++round) {
        // Odd rounds scrub: each worker validates its own shard's unit
        // range while the other workers apply theirs.
        replay::ShardedConfig round_cfg = cfg;
        round_cfg.robust.scrub_every = (round % 2 == 0) ? 0 : 4096;
        Cache cache(1024, 0x7A);
        const auto rep = testutil::cache_sharded(cache, span, round_cfg);
        const bool scrubbed = round % 2 == 0 || rep.scrub.scanned > 0;
        if (!(rep.stats == seq) || !scrubbed || rep.scrub.corrupt != 0) {
            std::fprintf(stderr,
                         "round %d: sharded stats diverge from sequential "
                         "(ops %llu/%llu hits %llu/%llu, scrubbed %llu "
                         "units, %llu corrupt)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq.ops),
                         static_cast<unsigned long long>(rep.stats.hits),
                         static_cast<unsigned long long>(seq.hits),
                         static_cast<unsigned long long>(rep.scrub.scanned),
                         static_cast<unsigned long long>(rep.scrub.corrupt));
            return 1;
        }
    }
    std::size_t snapshots = 0;
    for (int round = 0; round < 3; ++round) {
        Cache cache(1024, 0x7A);
        replay::CacheReplayTarget<Cache, FlowKey, std::uint32_t> target(cache);
        std::vector<replay::TargetCheckpoint<replay::ReplayStats>> cps;
        replay::SpanOpSource source{span};
        const auto rep =
            replay::replay_target_checkpointed_stream(
                target, source, cfg, /*every_batches=*/64,
                [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                    cps.push_back(std::move(cp));
                })
                .value();
        snapshots += cps.size();
        if (!(rep.stats == seq) || cps.empty()) {
            std::fprintf(stderr,
                         "checkpointed round %d: diverged (ops %llu/%llu, "
                         "%zu checkpoints)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq.ops),
                         cps.size());
            return 1;
        }
    }

    // --- system-target rounds (generic engine path) ----------------------
    using systems::lrumon::LruMonTarget;
    const auto make_target = [] {
        systems::lrumon::LruMonConfig mcfg;
        mcfg.threshold = 400;
        return LruMonTarget(
            6,
            [](std::size_t p) {
                systems::lrumon::FilterConfig fcfg;
                fcfg.cm_width = 1u << 10;
                fcfg.seed = 0x70EEE + p;
                return systems::lrumon::make_filter(
                    systems::lrumon::FilterKind::kCm, fcfg);
            },
            [](std::size_t p) -> LruMonTarget::PolicyPtr {
                return std::make_unique<cache::P4lruArrayPolicy<
                    std::uint32_t, systems::lrumon::FlowLen, 3,
                    core::AddMerge>>(
                    96, 0xF11 + static_cast<std::uint32_t>(p) * 0x9E37u);
            },
            mcfg);
    };
    LruMonTarget seq_target = make_target();
    replay::SpanOpSource seq_source(trace);
    const auto seq_sys =
        replay::replay_target_sequential_stream(seq_target, seq_source)
            .value();
    const std::vector<std::byte> seq_image =
        testutil::state_bytes(seq_target);
    for (int round = 0; round < 3; ++round) {
        LruMonTarget target = make_target();
        replay::SpanOpSource source(trace);
        const auto rep =
            replay::replay_target_sharded_stream(target, source, cfg).value();
        const std::vector<std::byte> image = testutil::state_bytes(target);
        if (!(rep.stats == seq_sys) || image != seq_image) {
            std::fprintf(stderr,
                         "system round %d: threaded LruMonTarget diverged "
                         "from sequential (ops %llu/%llu, uploads %llu/%llu, "
                         "state %zu/%zu bytes)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq_sys.ops),
                         static_cast<unsigned long long>(rep.stats.uploads),
                         static_cast<unsigned long long>(seq_sys.uploads),
                         image.size(), seq_image.size());
            return 1;
        }
    }

    // --- supervised crash-recovery round (threaded engine) ----------------
    testutil::ScopedTempDir scratch{"p4lru_tsan"};
    replay::DurableStoreConfig store_cfg;
    store_cfg.retain = 3;
    store_cfg.sync = false;
    replay::DurableStore store(scratch.file("store"), store_cfg);
    fault::FaultPlan crash_plan;
    crash_plan.crash(3, fault::CrashPoint::kTornInstall, /*section=*/2)
        .crash(7, fault::CrashPoint::kBeforeRename);
    std::deque<Cache> lives;
    auto factory = [&lives] {
        lives.emplace_back(1024, 0x7A);
        return replay::CacheReplayTarget<Cache, FlowKey, std::uint32_t>(
            lives.back());
    };
    replay::SupervisorConfig sup;
    sup.every_batches = 32;
    sup.max_attempts = 4;
    replay::SpanOpSource source(span);
    const auto sv = replay::run_supervised_stream(factory, source, cfg, store,
                                                  sup, crash_plan);
    if (!sv.is_ok() || !(sv.value().report.stats == seq) ||
        sv.value().crashes != 2) {
        std::fprintf(
            stderr,
            "supervised round: %s (crashes %zu/2)\n",
            sv.is_ok() ? "stats diverge from sequential"
                       : sv.status().to_string().c_str(),
            sv.is_ok() ? sv.value().crashes : 0);
        return 1;
    }

    // --- obs rounds (metrics plane under the race detector) ---------------
    // Registry hammer: writer threads on shared instruments + get-or-create
    // races, while a background sampler snapshots concurrently.
    std::uint64_t hammer_total = 0;
    {
        obs::Registry reg;
        obs::SamplerConfig samp_cfg;
        samp_cfg.period_ms = 1;
        obs::Sampler sampler(reg, samp_cfg);
        obs::Counter* shared_c = reg.counter("tsan_shared");
        obs::Histogram* shared_h = reg.histogram("tsan_shared");
        constexpr std::size_t kThreads = 8;
        constexpr std::uint64_t kIters = 50'000;
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < kThreads; ++t) {
            pool.emplace_back([&, t] {
                obs::Gauge* g = reg.gauge("tsan_g" + std::to_string(t));
                for (std::uint64_t i = 0; i < kIters; ++i) {
                    shared_c->add(1);
                    shared_h->record(i);
                    g->set(static_cast<std::int64_t>(i));
                    if (i % 4096 == 0) {
                        reg.counter("tsan_late_" + std::to_string(i % 3))
                            ->add(1);
                    }
                }
            });
        }
        for (auto& th : pool) th.join();
        sampler.stop();
        hammer_total = shared_c->value();
        if (hammer_total != kThreads * kIters ||
            shared_h->snapshot().count != kThreads * kIters) {
            std::fprintf(stderr,
                         "obs hammer: merged totals inexact (%llu/%llu)\n",
                         static_cast<unsigned long long>(hammer_total),
                         static_cast<unsigned long long>(kThreads * kIters));
            return 1;
        }
    }

    // Instrumented threaded replay: the engine's metric writes (dispatcher
    // gauges, worker-side batch timings) race-free and report-inert.
    {
        obs::Registry reg;
        replay::ShardedConfig ocfg = cfg;
        ocfg.metrics = &reg;
        Cache cache(1024, 0x7A);
        const auto rep = testutil::cache_sharded(cache, span, ocfg);
        if (!(rep.stats == seq)) {
            std::fprintf(
                stderr,
                "obs round: instrumented stats diverge from sequential "
                "(ops %llu/%llu)\n",
                static_cast<unsigned long long>(rep.stats.ops),
                static_cast<unsigned long long>(seq.ops));
            return 1;
        }
        const auto snap = reg.snapshot();
        const std::uint64_t* batches =
            snap.counter("replay_batches_applied");
        if (batches == nullptr || *batches == 0) {
            std::fprintf(stderr,
                         "obs round: engine published no batch metrics\n");
            return 1;
        }
    }

    // --- streamed-source rounds (mmap reader under the race detector) -----
    {
        const std::string trace_path = scratch.file("trace.bin");
        trace::write_trace(trace_path, trace);
        auto src = trace::MmapSource::open(trace_path);
        if (!src.is_ok()) {
            std::fprintf(stderr, "streamed rounds: open: %s\n",
                         src.status().to_string().c_str());
            return 1;
        }
        for (int round = 0; round < 3; ++round) {
            if (!src.value()->seek(0).is_ok()) {
                std::fprintf(stderr, "streamed round %d: seek failed\n",
                             round);
                return 1;
            }
            auto stream = replay::packet_op_source(*src.value());
            Cache cache(1024, 0x7A);
            replay::CacheReplayTarget target(cache);
            const auto rep =
                replay::replay_target_sharded_stream(target, stream, cfg);
            if (!rep.is_ok() || !(rep.value().stats == seq)) {
                std::fprintf(
                    stderr,
                    "streamed round %d: mmap-source threaded replay %s "
                    "(ops %llu/%llu)\n",
                    round,
                    rep.is_ok() ? "diverged from sequential"
                                : rep.status().to_string().c_str(),
                    static_cast<unsigned long long>(
                        rep.is_ok() ? rep.value().stats.ops : 0),
                    static_cast<unsigned long long>(seq.ops));
                return 1;
            }
        }
    }

    std::printf(
        "replay_tsan_smoke: 5 threaded rounds (plain + scrubbing) + 3 "
        "checkpointed rounds (%zu quiesce snapshots) + 3 system-target "
        "rounds (LruMonTarget, %llu uploads, %zu-byte canonical state) + 1 "
        "supervised crash-recovery round (%zu attempts, %llu installs) + "
        "obs rounds (%llu hammered adds exact, instrumented replay inert) + "
        "3 streamed mmap-source rounds, 8 shards, stats identical to "
        "sequential (%llu ops, %llu hits, %llu evictions)\n",
        snapshots, static_cast<unsigned long long>(seq_sys.uploads),
        seq_image.size(), sv.value().attempts,
        static_cast<unsigned long long>(sv.value().installs),
        static_cast<unsigned long long>(hammer_total),
        static_cast<unsigned long long>(seq.ops),
        static_cast<unsigned long long>(seq.hits),
        static_cast<unsigned long long>(seq.evictions));
    return 0;
}
