// Durability-plane microbench (DESIGN.md §12): what crash safety costs.
//
// Reports, over one threaded replay workload:
//   * plain          — the engine with no checkpointing (baseline)
//   * checkpointed   — quiesce + serialize cuts, discarded (protocol cost)
//   * durable        — every cut installed into a DurableStore (no fsync)
//   * durable_fsync  — the same with fsync'd installs (full crash safety)
//   * crash_recover  — three injected crashes + recovery ladder restarts
// plus the byte-level serialize / parse / CRC-verify throughput of a sealed
// checkpoint image and the recovery-scan latency over a populated store.
// Exits 1 unless every checkpointed series lands on the plain run's
// statistics bit for bit.
//
// Writes BENCH_durability.json into the working directory so the cost of
// the durability ladder is tracked run over run, like the other benches.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/supervisor.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "bench_common.hpp"

namespace {

using namespace p4lru;
using bench::StopWatch;
using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                  FlowKey, std::uint32_t>;
using Target = replay::CacheReplayTarget<Cache>;

constexpr std::size_t kUnits = 4'096;
constexpr std::uint32_t kSeed = 0x7A;

struct Row {
    std::string name;
    double wall_s = 0.0;
    replay::ReplayStats stats{};
    std::uint64_t installs = 0;
    std::uint64_t crashes = 0;
    std::uint64_t bytes = 0;  ///< durable bytes written (installs * image)
};

/// Scratch directory under the system temp dir, removed on destruction.
struct Scratch {
    std::string path;
    explicit Scratch(const char* tag) {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::path base = fs::temp_directory_path(ec);
        if (ec) base = "/tmp";
        path = (base / (std::string(tag) + "." +
                        std::to_string(static_cast<unsigned long>(
                            std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count() &
                            0xFFFFFF))))
                   .string();
        fs::create_directories(path, ec);
    }
    ~Scratch() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

replay::ShardedConfig engine_cfg() {
    replay::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 128;
    cfg.mode = replay::Mode::kThreaded;
    return cfg;
}

}  // namespace

int main() {
    const auto trace = bench::make_trace(4, 13, bench::scaled(400'000));
    const auto ops = replay::ops_from_packets(trace);
    const auto cfg = engine_cfg();
    // Install every 32 batches, or more often when the trace is too short
    // for the uninterrupted run to make at least 5 installs (one per
    // delivered multiple of the cadence short of the last batch).
    const std::uint64_t batches =
        (ops.size() + cfg.batch_ops - 1) / cfg.batch_ops;
    const std::uint64_t cadence = std::clamp<std::uint64_t>(
        batches > 0 ? (batches - 1) / 5 : 0, 1, 32);

    std::vector<Row> rows;

    {  // plain: no checkpoint machinery at all.
        Cache cache(kUnits, kSeed);
        Target target(cache);
        replay::SpanOpSource source(ops);
        StopWatch w;
        const auto rep =
            replay::replay_target_sharded_stream(target, source, cfg).value();
        rows.push_back({"plain", w.seconds(), rep.stats, 0, 0, 0});
    }

    std::uint64_t image_bytes = 0;
    {  // checkpointed: quiesce + serialize every cut, then discard.
        Cache cache(kUnits, kSeed);
        Target target(cache);
        replay::SpanOpSource source(ops);
        std::uint64_t cuts = 0;
        StopWatch w;
        const auto rep =
            replay::replay_target_checkpointed_stream(
                target, source, cfg, cadence,
                [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                    const auto img = replay::serialize_target_checkpoint(cp);
                    image_bytes = img.image.size();
                    ++cuts;
                })
                .value();
        rows.push_back({"checkpointed", w.seconds(), rep.stats, cuts, 0, 0});
    }

    const auto durable_run = [&](const char* name, bool sync,
                                 const fault::FaultPlan& plan,
                                 std::uint64_t expected_crashes) {
        Scratch scratch("p4lru_bench_dur");
        replay::DurableStoreConfig scfg;
        scfg.retain = 4;
        scfg.sync = sync;
        replay::DurableStore store(scratch.path + "/store", scfg);
        std::deque<Cache> lives;
        auto factory = [&lives] {
            lives.emplace_back(kUnits, kSeed);
            return Target(lives.back());
        };
        replay::SupervisorConfig sup;
        sup.every_batches = cadence;
        sup.max_attempts = expected_crashes + 2;
        replay::SpanOpSource source(ops);
        StopWatch w;
        const auto sv = replay::run_supervised_stream(factory, source, cfg,
                                                      store, sup, plan);
        const double secs = w.seconds();
        if (!sv.is_ok() || sv.value().crashes != expected_crashes) {
            std::fprintf(stderr, "bench_durability: %s failed: %s\n", name,
                         sv.is_ok() ? "unexpected crash count"
                                    : sv.status().to_string().c_str());
            return false;
        }
        rows.push_back({name, secs, sv.value().report.stats,
                        sv.value().installs, sv.value().crashes,
                        sv.value().installs * image_bytes});
        return true;
    };

    if (!durable_run("durable", false, {}, 0)) return 1;
    if (!durable_run("durable_fsync", true, {}, 0)) return 1;
    // Crash ordinals are cumulative across attempts, and a resumed attempt
    // only re-installs the suffix — space them off the uninterrupted install
    // count.  The cadence above keeps that count at 5 or more, so all three
    // fire under P4LRU_SCALE shrinkage too.
    const std::uint64_t full_installs =
        ops.size() / (cadence * cfg.batch_ops);
    const std::uint64_t step = std::max<std::uint64_t>(full_installs / 5, 1);
    fault::FaultPlan crashes;
    crashes.crash(step, fault::CrashPoint::kTornInstall, 2)
        .crash(2 * step, fault::CrashPoint::kBeforeRename)
        .crash(3 * step, fault::CrashPoint::kTornTemp, 1);
    if (!durable_run("crash_recover", false, crashes, 3)) return 1;

    // Checkpoint cuts, installs and crash recovery decide only when work
    // happens, never what: every series must match the plain run.
    bool correct = true;
    for (const auto& r : rows) {
        if (!(r.stats == rows.front().stats)) {
            std::fprintf(stderr,
                         "bench_durability: %s statistics differ from the "
                         "plain run\n",
                         r.name.c_str());
            correct = false;
        }
    }

    // --- byte-level costs over one representative image -------------------
    Cache img_cache(kUnits, kSeed);
    Target img_target(img_cache);
    {
        replay::SpanOpSource source(ops);
        (void)replay::replay_target_sharded_stream(img_target, source, cfg);
    }
    const auto cut = replay::take_target_checkpoint(
        img_target,
        replay::BasicCheckpointCut<replay::ReplayStats>{
            .cursor = ops.size(),
            .stats = {ops.size(), 0, 0, 0}});
    constexpr int kReps = 200;
    double ser_s = 0, parse_s = 0, verify_s = 0;
    replay::SerializedCheckpoint image;
    {
        StopWatch w;
        for (int i = 0; i < kReps; ++i) {
            image = replay::serialize_target_checkpoint(cut);
        }
        ser_s = w.seconds() / kReps;
    }
    const std::vector<std::byte> flat = image.image.flatten();
    {
        StopWatch w;
        for (int i = 0; i < kReps; ++i) {
            const auto r = replay::parse_target_checkpoint<
                replay::ReplayStats>(flat, "bench");
            if (!r.is_ok()) return 1;
        }
        parse_s = w.seconds() / kReps;
    }
    {
        StopWatch w;
        for (int i = 0; i < kReps; ++i) {
            if (!replay::verify_checkpoint_image(flat, "bench")
                     .is_ok()) {
                return 1;
            }
        }
        verify_s = w.seconds() / kReps;
    }

    // --- recovery-scan latency over a populated store ---------------------
    double scan_s = 0;
    {
        Scratch scratch("p4lru_bench_dur");
        replay::DurableStore store(scratch.path + "/store",
                                   {.retain = 4, .sync = false});
        for (int i = 0; i < 4; ++i) {
            if (!store.install(image).is_ok()) return 1;
        }
        StopWatch w;
        for (int i = 0; i < kReps; ++i) {
            const auto rec = store.recover_newest(
                [](const std::vector<std::byte>& bytes,
                   const std::string& origin) {
                    return replay::parse_target_checkpoint<
                        replay::ReplayStats>(bytes, origin);
                });
            if (!rec.found) return 1;
        }
        scan_s = w.seconds() / kReps;
    }

    const double mb = static_cast<double>(flat.size()) / 1e6;
    ConsoleTable t({"series", "wall s", "Mops/s", "installs", "crashes",
                    "MB written"});
    for (const auto& r : rows) {
        t.add_row({r.name, ConsoleTable::num(r.wall_s, 3),
                   ConsoleTable::num(static_cast<double>(r.stats.ops) /
                                         r.wall_s / 1e6,
                                     2),
                   std::to_string(r.installs), std::to_string(r.crashes),
                   ConsoleTable::num(static_cast<double>(r.bytes) / 1e6,
                                     1)});
    }
    t.print("durability ladder: " + std::to_string(ops.size()) + " ops, " +
            std::to_string(flat.size()) + "-byte sealed images");
    std::printf(
        "image ops: serialize %.1f MB/s, parse %.1f MB/s, verify %.1f "
        "MB/s, recovery scan %.1f us (4 generations)\n",
        mb / ser_s, mb / parse_s, mb / verify_s, scan_s * 1e6);

    std::vector<bench::Metric> json = {
        {"ops", static_cast<double>(ops.size()), "count"},
        {"image_bytes", static_cast<double>(flat.size()), "B"},
        {"serialize_mb_s", mb / ser_s, "MB/s"},
        {"parse_mb_s", mb / parse_s, "MB/s"},
        {"verify_mb_s", mb / verify_s, "MB/s"},
        {"recovery_scan_us", scan_s * 1e6, "us"}};
    for (const auto& r : rows) {
        json.push_back({r.name + ".wall_s", r.wall_s, "s"});
        json.push_back(
            {r.name + ".installs", static_cast<double>(r.installs), "count"});
        json.push_back(
            {r.name + ".crashes", static_cast<double>(r.crashes), "count"});
        json.push_back(
            {r.name + ".durable_bytes", static_cast<double>(r.bytes), "B"});
    }
    const bool wrote = bench::write_bench_json("durability", correct, json);
    return correct && wrote ? 0 : 1;
}
