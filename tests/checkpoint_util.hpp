// Test helpers for replaying and checkpointing the bare P4LRU array through
// its replay target (CacheReplayTarget + target_checkpoint.hpp): resident
// ops ride a SpanOpSource into the _stream entry points, and a sequential
// engine run is a {shards = 1, Mode::kInline} run, so "replay this cache",
// "checkpoint a sequential replay at cursor c" and "resume it
// sequentially" are spelled once here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"

namespace p4lru::testutil {

/// A storage's planes() concatenated: the flat image load_planes reads.
template <typename Storage>
std::vector<std::byte> plane_bytes(const Storage& storage) {
    std::vector<std::byte> out;
    for (const auto plane : storage.planes()) {
        out.insert(out.end(), plane.begin(), plane.end());
    }
    return out;
}

/// A target's save_state image, flattened.
template <typename Target>
std::vector<std::byte> state_bytes(const Target& target) {
    io::GatherImage image;
    target.save_state(image);
    return image.flatten();
}

/// The one-op-at-a-time reference replay of resident `ops` into `cache`.
template <typename Cache, typename Ops>
replay::ReplayStats cache_sequential(Cache& cache, const Ops& ops) {
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource source(ops);
    return replay::replay_target_sequential_stream(target, source).value();
}

/// The sharded engine over resident `ops` into `cache`.
template <typename Cache, typename Ops, typename Faults = fault::NoFaults>
replay::ShardedReport cache_sharded(Cache& cache, const Ops& ops,
                                    const replay::ShardedConfig& cfg = {},
                                    const Faults& faults = {}) {
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource source(ops);
    return replay::replay_target_sharded_stream(target, source, cfg, faults)
        .value();
}

/// One inline shard: the engine's sequential mode.  With `cadence_ops`
/// set, blocks are that long, so checkpointing every block cuts at exactly
/// the multiples of `cadence_ops` a per-op loop would.
inline replay::ShardedConfig sequential_config(std::size_t cadence_ops = 0) {
    replay::ShardedConfig cfg;
    cfg.shards = 1;
    cfg.mode = replay::Mode::kInline;
    if (cadence_ops != 0) cfg.batch_ops = cadence_ops;
    return cfg;
}

/// Checkpoint `target` as a sequential run that has applied the op prefix
/// [0, cursor) with statistics `stats`.
template <typename Target>
replay::TargetCheckpoint<typename Target::Stats> sequential_checkpoint(
    const Target& target, std::uint64_t cursor,
    const typename Target::Stats& stats) {
    replay::BasicCheckpointCut<typename Target::Stats> cut;
    cut.cursor = cursor;
    cut.stats = stats;
    cut.shard_stats = std::span<const typename Target::Stats>(&stats, 1);
    cut.shards = 1;
    return replay::take_target_checkpoint(target, cut);
}

/// Restore `cp` into `target` and replay the rest of `ops` sequentially;
/// the final statistics, or the resume's typed rejection.
template <typename Target>
Expected<typename Target::Stats> resume_sequential(
    Target& target, std::span<const typename Target::Op> ops,
    const replay::TargetCheckpoint<typename Target::Stats>& cp) {
    replay::SpanOpSource source{ops};
    auto rep = replay::resume_target_sharded_stream(target, source, cp,
                                                    sequential_config());
    if (!rep.is_ok()) return rep.status();
    return rep.value().stats;
}

}  // namespace p4lru::testutil
