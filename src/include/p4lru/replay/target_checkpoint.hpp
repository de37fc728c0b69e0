// Checkpoint/resume for any ReplayTarget (DESIGN.md §10–§12) — the one
// checkpoint path of the replay stack.  The bare P4LRU array checkpoints
// through it as CacheReplayTarget (state = the storage plane image, state
// id = the layout id, fingerprint = the plane geometry), the three paper
// systems through their own targets.
//
// The dispatcher quiesces the workers at a block boundary (replay.hpp,
// shard cursors), and the cut is materialized through the target's
// snapshot plane — `save_state` for the full mutable state,
// `state_id`/`state_fingerprint` as the shape guards that stop a
// checkpoint from being restored into a differently-configured target.
// take_target_checkpoint returns a TargetSnapshot, whose state is the
// gather image save_state filled: it may borrow the target's live planes,
// so it is valid only until the target's next apply.  Sealing it
// (serialize_target_checkpoint) and installing the seal read those planes
// in place — once for the CRC, once for the write — and copy nothing.
// Converting it to a TargetCheckpoint is the one flatten copy, made for
// every sink that keeps checkpoints; a sink that declares
// `static constexpr bool kTakesSnapshot = true` (the supervisor's store
// sink) receives the snapshot itself and must be done with it on return.
// Resuming is "load state, replay the suffix": the suffix may use any
// shard geometry, because a cut is a clean op prefix and per-bucket
// arrival order is all that bit-exactness needs.  A sequential checkpoint
// cadence is a {shards = 1, Mode::kInline} run: cuts land every
// `batch_ops * every_batches` ops.
//
// On disk a checkpoint is a sealed P4LRUTGC image (checkpoint_io.hpp owns
// the format); serialize/parse here only map TargetCheckpoint<Stats> onto
// that framing — the Stats type must be trivially copyable, its records
// being raw memory images guarded by the record-size field and the stats
// CRC.  write_target_checkpoint / read_target_checkpoint_checked go through
// durable_store.hpp's file helpers; for crash-safe generational installs
// use DurableStore itself, and for automatic restart-from-newest-valid-
// generation use supervisor.hpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/fault/status.hpp"
#include "p4lru/replay/checkpoint_io.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/replay.hpp"

namespace p4lru::replay {

/// A resumable snapshot of an in-progress target replay: the header fields
/// (cursor, shape guards, telemetry; checkpoint_io.hpp) plus the merged and
/// per-shard statistics and the target's state image.  Invariants (checked
/// on resume): stats.ops == cursor, and the per-shard slices — when present
/// — sum to the totals (a checkpoint rebased across a resume carries no
/// slices, because the suffix split cannot be combined with the prefix's).
template <typename Stats>
struct TargetCheckpoint : CheckpointHeader {
    Stats stats{};                   ///< merged statistics over [0, cursor)
    std::vector<Stats> shard_stats;  ///< per-shard split of stats
    std::vector<std::byte> state;    ///< target.save_state() image, flat
};

/// A TargetCheckpoint whose state is the target's gather image as
/// save_state left it: owned framing plus spans of the target's live
/// memory, valid until the target's next apply.  An rvalue converts
/// (implicitly) to an owning TargetCheckpoint by flattening the state —
/// the one copy.
template <typename Stats>
struct TargetSnapshot : CheckpointHeader {
    Stats stats{};
    std::vector<Stats> shard_stats;
    io::GatherImage state;

    operator TargetCheckpoint<Stats>() && {
        return {{*this}, stats, std::move(shard_stats), state.flatten()};
    }
};

/// Materialize a quiesced dispatch cut into a snapshot.  Runs on the
/// dispatcher thread while every shard cursor sits at the cut and nothing
/// new is published, so the state read is race-free; the borrowed state
/// stays valid until the target applies its next op.
template <typename Target>
[[nodiscard]] TargetSnapshot<typename Target::Stats> take_target_checkpoint(
    const Target& target,
    const BasicCheckpointCut<typename Target::Stats>& cut) {
    TargetSnapshot<typename Target::Stats> cp;
    cp.cursor = cut.cursor;
    cp.stats = cut.stats;
    cp.unit_count = target.unit_count();
    cp.state_id = Target::state_id();
    cp.state_fingerprint = Target::state_fingerprint();
    cp.shard_stats.assign(cut.shard_stats.begin(), cut.shard_stats.end());
    cp.delivered_batches = cut.delivered_batches;
    cp.backpressure_waits = cut.backpressure_waits;
    cp.park_wait_us = cut.park_wait_us;
    cp.drained_inline = cut.drained_inline;
    cp.abandoned_workers = cut.abandoned_workers;
    cp.scrub = cut.scrub;
    target.save_state(cp.state);
    return cp;
}

namespace detail {

/// A sink that receives TargetSnapshot&& (borrowed state) instead of an
/// owning TargetCheckpoint&&; it opts in with a static kTakesSnapshot.
template <typename Sink>
concept SnapshotSink = requires { requires Sink::kTakesSnapshot; };

/// Hand a cut's snapshot to `sink`: as is for a SnapshotSink, else as an
/// owning checkpoint (the one flatten copy).
template <typename Sink, typename Stats>
void deliver(Sink& sink, TargetSnapshot<Stats>&& snap) {
    if constexpr (SnapshotSink<Sink>) {
        sink(std::move(snap));
    } else {
        sink(TargetCheckpoint<Stats>(std::move(snap)));
    }
}

/// A sink's cooperative stop request; a sink without `stop_requested()`
/// never asks to stop.
template <typename Sink>
[[nodiscard]] bool sink_stop_requested(const Sink& sink) {
    if constexpr (requires { sink.stop_requested(); }) {
        return sink.stop_requested();
    } else {
        return false;
    }
}

/// The enabled counterpart of detail::NoCheckpoint (replay.hpp): trips the
/// dispatch loop's trigger every `every` delivered batches and converts
/// the quiesced cut into a snapshot for the sink (detail::deliver).  If the
/// sink exposes `stop_requested()`, the dispatch loop polls it after every
/// emitted checkpoint and winds down cooperatively — that is how the crash
/// injector (fault::CrashPoint) and the supervisor stop a run at a cut
/// without unwinding through the worker join.
template <typename Target, typename Sink>
class TargetDispatchCheckpointer {
  public:
    static constexpr bool kEnabled = true;

    TargetDispatchCheckpointer(Target& target, std::uint64_t every,
                               Sink& sink)
        : target_(&target), every_(every), next_(every), sink_(&sink) {}

    [[nodiscard]] bool due(std::uint64_t delivered) const noexcept {
        return every_ != 0 && delivered >= next_;
    }

    void emit(const BasicCheckpointCut<typename Target::Stats>& cut) {
        // Re-arm relative to the actual cut.
        next_ = cut.delivered_batches + every_;
        deliver(*sink_, take_target_checkpoint(*target_, cut));
    }

    [[nodiscard]] bool stop_requested() const {
        return sink_stop_requested(*sink_);
    }

  private:
    Target* target_;
    std::uint64_t every_;
    std::uint64_t next_;
    Sink* sink_;
};

}  // namespace detail

/// Streaming sharded target replay that emits a TargetCheckpoint into
/// `sink` every `every_batches` delivered batches (sink(TargetCheckpoint&&),
/// or sink(TargetSnapshot&&) for a detail::SnapshotSink); 0 disables
/// emission.  Checkpoint cursors are relative to the source's
/// position at entry.  Statistics and final target state stay bit-identical
/// to replay_target_sharded_stream — the quiesce only decides *when* work
/// happens, never what — and the fault hooks compose.  A sink exposing a
/// `stop_requested()` member can end the run early at a cut boundary; the
/// returned report then covers the prefix up to the last emitted cut plus
/// any batches already in flight.
template <typename Target, typename Source, typename Sink,
          typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
replay_target_checkpointed_stream(Target& target, Source& source,
                                  const ShardedConfig& cfg,
                                  std::uint64_t every_batches, Sink&& sink,
                                  const Faults& faults = {}) {
    detail::TargetDispatchCheckpointer<Target, std::remove_reference_t<Sink>>
        ckpt(target, every_batches, sink);
    return detail::replay_sharded_stream_impl(target, source, cfg, faults,
                                              ckpt);
}

/// Shape/consistency validation shared by the resume entry points and the
/// supervisor's recovery scan: does `cp` describe a run of THIS target over
/// a stream of `op_count` ops?  kInvalidState on any mismatch.
template <typename Target>
[[nodiscard]] Status validate_target_checkpoint(
    const Target& target, std::size_t op_count,
    const TargetCheckpoint<typename Target::Stats>& cp) {
    using Stats = typename Target::Stats;
    if (cp.state_id != Target::state_id() ||
        cp.state_fingerprint != Target::state_fingerprint()) {
        return invalid_state(
            "target checkpoint state id " + std::to_string(cp.state_id) +
            " / fingerprint " + std::to_string(cp.state_fingerprint) +
            " does not match this target (id " +
            std::to_string(Target::state_id()) + ", fingerprint " +
            std::to_string(Target::state_fingerprint()) + ")");
    }
    if (cp.unit_count != target.unit_count()) {
        return invalid_state("target checkpoint unit count " +
                             std::to_string(cp.unit_count) +
                             " != target unit count " +
                             std::to_string(target.unit_count()));
    }
    if (cp.cursor > op_count) {
        return invalid_state("target checkpoint cursor " +
                             std::to_string(cp.cursor) +
                             " beyond op stream of " +
                             std::to_string(op_count));
    }
    if (static_cast<std::uint64_t>(cp.stats.ops) != cp.cursor) {
        return invalid_state("target checkpoint stats cover " +
                             std::to_string(cp.stats.ops) +
                             " ops but cursor is " +
                             std::to_string(cp.cursor));
    }
    if (!cp.shard_stats.empty()) {
        Stats sum{};
        for (const auto& s : cp.shard_stats) sum.merge(s);
        if (!(sum == cp.stats)) {
            return invalid_state(
                "target checkpoint per-shard statistics do not sum to its "
                "totals");
        }
    }
    return Status::ok();
}

namespace detail {

/// Fold a restored prefix's statistics and telemetry into the suffix
/// report, so a resumed run reads as if it had never been interrupted.
template <typename Stats>
void merge_prefix(BasicShardedReport<Stats>& rep,
                  const TargetCheckpoint<Stats>& prefix) {
    rep.stats.merge(prefix.stats);
    rep.backpressure_waits += prefix.backpressure_waits;
    rep.park_wait_us += prefix.park_wait_us;
    rep.drained_inline += static_cast<std::size_t>(prefix.drained_inline);
    rep.abandoned_workers +=
        static_cast<std::size_t>(prefix.abandoned_workers);
    rep.scrub.merge(prefix.scrub);
}

/// Wraps a user sink for a *resumed* checkpointed replay: checkpoints
/// emitted during the suffix describe ops [0, k) of the suffix, so before
/// handing them on, rebase to absolute run coordinates — cursor shifted by
/// the prefix cursor, stats/telemetry merged with the prefix's.  The shard
/// slices are dropped (suffix-relative splits cannot be combined with the
/// prefix's; validate_target_checkpoint skips the slice-sum check when
/// empty), which keeps every rebased checkpoint itself resumable.  It takes
/// snapshots exactly when the wrapped sink does.
template <typename Stats, typename Sink>
class RebasedTargetSink {
  public:
    static constexpr bool kTakesSnapshot = SnapshotSink<Sink>;

    RebasedTargetSink(const TargetCheckpoint<Stats>& prefix, Sink& sink)
        : prefix_(&prefix), sink_(&sink) {}

    /// `cp` is a TargetCheckpoint&&, or a TargetSnapshot&& when the wrapped
    /// sink takes snapshots.
    template <typename Checkpoint>
        requires(!std::is_lvalue_reference_v<Checkpoint>)
    void operator()(Checkpoint&& cp) {
        cp.cursor += prefix_->cursor;
        cp.stats.merge(prefix_->stats);
        cp.shard_stats.clear();
        cp.delivered_batches += prefix_->delivered_batches;
        cp.backpressure_waits += prefix_->backpressure_waits;
        cp.park_wait_us += prefix_->park_wait_us;
        cp.drained_inline += prefix_->drained_inline;
        cp.abandoned_workers += prefix_->abandoned_workers;
        cp.scrub.merge(prefix_->scrub);
        (*sink_)(std::move(cp));
    }

    [[nodiscard]] bool stop_requested() const {
        return sink_stop_requested(*sink_);
    }

  private:
    const TargetCheckpoint<Stats>* prefix_;
    Sink* sink_;
};

}  // namespace detail

/// Restore `cp` into `target`, seek the source to its cursor, stream the
/// suffix with `cfg`, and keep emitting checkpoints into `sink` every
/// `every_batches` delivered batches (0: none).  The resume *seeks* instead
/// of re-reading the prefix, and may use a different shard count, batch
/// size or mode than the interrupted run.  Emitted checkpoints are rebased
/// to absolute run coordinates (see RebasedTargetSink), so each one is
/// itself a valid resume point — this is what lets the supervisor chain an
/// arbitrary number of crash/recover cycles — and the returned report
/// merges the checkpoint's statistics and telemetry.  A sink
/// `stop_requested()` ends the suffix early at a cut, exactly as in
/// replay_target_checkpointed_stream.  Fails with kInvalidState on any
/// shape mismatch or when the checkpoint is internally inconsistent, and
/// with the source's own Status on a seek or mid-stream failure.
template <typename Target, typename Source, typename Sink,
          typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
resume_target_checkpointed_stream(
    Target& target, Source& source,
    const TargetCheckpoint<typename Target::Stats>& cp,
    const ShardedConfig& cfg, std::uint64_t every_batches, Sink&& sink,
    const Faults& faults = {}) {
    using Stats = typename Target::Stats;
    if (Status st = validate_target_checkpoint(
            target, static_cast<std::size_t>(source.size()), cp);
        !st.is_ok()) {
        return st;
    }
    if (!target.load_state(cp.state)) {
        return invalid_state("target checkpoint state image of " +
                             std::to_string(cp.state.size()) +
                             " bytes does not match this target's shape");
    }
    if (Status st = source.seek(cp.cursor); !st.is_ok()) {
        return st;
    }
    detail::RebasedTargetSink<Stats, std::remove_reference_t<Sink>> rebased(
        cp, sink);
    auto streamed = replay_target_checkpointed_stream(
        target, source, cfg, every_batches, rebased, faults);
    if (!streamed.is_ok()) return streamed.status();
    BasicShardedReport<Stats> rep = std::move(streamed).value();
    detail::merge_prefix(rep, cp);
    return rep;
}

/// Restore a target checkpoint into `target` and stream the remaining ops
/// [cp.cursor, end) with `cfg`: resume_target_checkpointed_stream without
/// further checkpoints.
template <typename Target, typename Source, typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
resume_target_sharded_stream(
    Target& target, Source& source,
    const TargetCheckpoint<typename Target::Stats>& cp,
    const ShardedConfig& cfg = {}, const Faults& faults = {}) {
    return resume_target_checkpointed_stream(
        target, source, cp, cfg, /*every_batches=*/0,
        [](TargetCheckpoint<typename Target::Stats>&&) {}, faults);
}

// ---------------------------------------------------------------------------
// Disk persistence: TargetCheckpoint <-> sealed P4LRUTGC image.

namespace detail {

/// Seal `cp`'s header and statistics records around `state`.
template <typename Checkpoint>
[[nodiscard]] SerializedCheckpoint seal_target(const Checkpoint& cp,
                                               io::GatherImage state) {
    using Stats = decltype(cp.stats);
    return seal_checkpoint_image(
        cp, std::as_bytes(std::span<const Stats>(&cp.stats, 1)),
        std::as_bytes(std::span<const Stats>(cp.shard_stats)),
        std::move(state));
}

}  // namespace detail

/// Render `cp` to its sealed on-disk image in memory, without copying the
/// state bytes.  From an lvalue the image borrows cp's state, so `cp` must
/// outlive it unchanged; from an rvalue the image takes over whatever `cp`
/// owned.  A snapshot's spans of live target memory stay borrowed either
/// way: such an image is valid until the target's next apply.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] SerializedCheckpoint serialize_target_checkpoint(
    const TargetCheckpoint<Stats>& cp) {
    io::GatherImage state;
    state.borrow(cp.state);
    return detail::seal_target(cp, std::move(state));
}

template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] SerializedCheckpoint serialize_target_checkpoint(
    TargetCheckpoint<Stats>&& cp) {
    return detail::seal_target(cp, io::GatherImage(std::move(cp.state)));
}

template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] SerializedCheckpoint serialize_target_checkpoint(
    const TargetSnapshot<Stats>& cp) {
    io::GatherImage state;
    state.borrow(cp.state);
    return detail::seal_target(cp, std::move(state));
}

template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] SerializedCheckpoint serialize_target_checkpoint(
    TargetSnapshot<Stats>&& cp) {
    return detail::seal_target(cp, std::move(cp.state));
}

/// Parse a target checkpoint from an in-memory image: the frame parser
/// (structure, then the seal), a record-size check against `Stats`, and a
/// copy-out.  `origin` names the image in errors.  Structural validation
/// only — whether the checkpoint fits a particular target (state id,
/// fingerprint, unit count) is decided by validate_target_checkpoint / the
/// resume entry points.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Expected<TargetCheckpoint<Stats>> parse_target_checkpoint(
    std::span<const std::byte> image, const std::string& origin) {
    Expected<CheckpointFrame> framed = parse_checkpoint_frame(image, origin);
    if (!framed.is_ok()) return framed.status();
    const CheckpointFrame& f = framed.value();
    if (!f.seal.is_ok()) return f.seal;
    if (f.record_bytes != sizeof(Stats)) {
        return corrupt("stats record size " +
                           std::to_string(f.record_bytes) + " in " + origin +
                           " != expected " + std::to_string(sizeof(Stats)),
                       /*record size field*/ 104);
    }
    TargetCheckpoint<Stats> cp;
    static_cast<CheckpointHeader&>(cp) = f.header;
    std::memcpy(&cp.stats, f.records.data(), sizeof(Stats));
    cp.shard_stats.resize(f.shard_count);
    if (f.shard_count != 0) {
        std::memcpy(cp.shard_stats.data(), f.records.data() + sizeof(Stats),
                    sizeof(Stats) * f.shard_count);
    }
    cp.state.assign(f.state.begin(), f.state.end());
    return cp;
}

/// Serialize `cp` to `path` (atomic_write_file without fsync: the file is
/// either the old one or the complete new image).  kIoError with path +
/// errno on failure.  For generational, fsync'd installs use DurableStore.
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Status write_target_checkpoint(
    const std::string& path, const TargetCheckpoint<Stats>& cp) {
    return atomic_write_file(path, serialize_target_checkpoint(cp).image,
                             /*sync=*/false);
}

/// Read and parse a target checkpoint from `path`; the typed-error path.
/// On failure the Status names the cause, the offending path, and the byte
/// offset at which the file stopped making sense (kIoError with errno for
/// an unreadable path).
template <typename Stats>
    requires std::is_trivially_copyable_v<Stats>
[[nodiscard]] Expected<TargetCheckpoint<Stats>>
read_target_checkpoint_checked(const std::string& path) {
    Expected<std::vector<std::byte>> image = read_file_bytes(path);
    if (!image.is_ok()) return image.status();
    return parse_target_checkpoint<Stats>(image.value(), path);
}

}  // namespace p4lru::replay
