// Sharded parallel trace-replay engine, hardened against worker failure.
//
// The engine drives any model of the ReplayTarget concept
// (replay_target.hpp); `CacheReplayTarget` below — a bare
// core::ParallelCache — is the first model, and the three paper systems
// (systems/*/..._target.hpp) are the others.  A target's bucket hash
// partitions its state into disjoint units, so replay is embarrassingly
// parallel across unit ranges (ShardPlan carves [0, units) into contiguous
// per-shard ranges).  Because every unit is touched by exactly one shard
// and each shard applies its ops in arrival order, the final target state
// and the merged statistics are bit-identical to sequential replay.
//
// Threaded replay is a pipelined parallel partition (DESIGN.md §8).  The
// dispatcher only pulls: it copies each `batch_ops`-op block from the
// source into the next slot of one shared ring and publishes it with a
// release store.  Any thread — a worker with nothing to apply, or the
// dispatcher while the ring is full — claims the oldest published,
// unrouted block with a CAS, routes it once and counting-sorts it into
// per-shard runs.  Shard s applies its run of block k strictly in block
// order, prefetching the run of block k+1 first, and then bumps its
// applied-block cursor with a release store.  A slot is reused once every
// cursor has passed it.
//
// On machines without spare hardware threads (or with ShardedConfig::mode =
// kInline) the blocks are routed and applied on the calling thread: the
// two-phase route-and-prefetch then update pass still overlaps memory
// latency, and determinism is unchanged.
//
// Failure model (DESIGN.md §10): the dispatcher never assumes a worker
// keeps up.  While it waits on a full ring it helps route, watches each
// lagging cursor, and — once the pipeline has stood still for half the
// watchdog timeout — counts a backpressure wait every push_deadline_us.  A worker that
// parked on its own, or that made no progress for stall_timeout_us (the
// watchdog then asks it to park and waits for the acknowledgement), is
// taken over: the dispatcher applies that shard's runs from the worker's
// cursor on, in block order.  Workers park only at a
// block boundary, so each run is applied exactly once and each unit still
// sees its ops in arrival order.  Fault injection enters through the
// `Faults` template hook (fault_plan.hpp), counted in blocks; the default
// NoFaults instantiation folds every hook to nothing.
//
// Checkpointing (target_checkpoint.hpp): a cut stops publishing and waits,
// with the same ladder, until every shard's cursor reaches the last
// published block.  Workers store their stats before bumping the cursor,
// so the applied set is exactly the op prefix [0, cursor) and the stats
// are readable; no thread writes the target until the next publish, which
// makes the sink's state reads safe.
//
// Cooperative-park assumption: the watchdog relies on workers reaching a
// block boundary.  A worker wedged inside apply_batch (e.g. on a poisoned
// page), or while holding a route claim, never parks or never finishes the
// block's runs; the park-ack wait is a bounded exponential-backoff sleep
// (telemetry: ShardedReport::park_wait_us) but still waits forever —
// preemptive cancellation of a thread that may hold the target mid-write
// cannot preserve bit-exactness.
//
// Optional target planes (replay_target.hpp): the engine calls
// prefetch_unit, scrub/scrub_all and inject_storage_faults only on targets
// that have them, decided at compile time; a target without one pays
// nothing for it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <ranges>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/affinity.hpp"  // pinnable_cpus(), for callers
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/replay/shard_plan.hpp"

namespace p4lru::replay {

/// One logical trace operation: update the cache with <key, value>.
template <typename Key, typename Value>
struct ReplayOp {
    Key key{};
    Value value{};
};

/// Aggregate outcome counters of a replay. Totals are order-independent
/// sums, so the deterministic per-shard merge reproduces the sequential
/// numbers exactly.
struct ReplayStats {
    std::uint64_t ops = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    friend bool operator==(const ReplayStats&, const ReplayStats&) = default;

    void merge(const ReplayStats& o) noexcept {
        ops += o.ops;
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
    }

    template <typename Key, typename Value>
    void tally(const core::UpdateResult<Key, Value>& r) noexcept {
        ++ops;
        if (r.hit) {
            ++hits;
        } else {
            ++misses;
        }
        if (r.evicted) ++evictions;
    }

    [[nodiscard]] double hit_rate() const noexcept {
        return ops ? static_cast<double>(hits) / static_cast<double>(ops)
                   : 0.0;
    }
};

/// Minimal in-memory model of the OpSource concept the streaming engine
/// pulls from (DESIGN.md §14).  An op source is any type exposing
///
///   using value_type = Op;
///   Expected<std::span<const Op>> next_batch(std::size_t max);
///   Status seek(std::uint64_t op_index);
///   std::uint64_t size() const;   std::uint64_t tell() const;
///   const char* name() const;
///
/// with the TraceSource batch contract (trace_source.hpp): next_batch
/// returns exactly min(max, size() - tell()) ops, an empty span means end
/// of stream, the span stays valid until the next next_batch()/seek(), and
/// errors are typed Status at the batch boundary.  SpanOpSource wraps ops
/// the caller already holds in memory — it never fails, so `.value()` on
/// the result of a replay over it cannot throw.  op_source.hpp bridges
/// trace::TraceSource (on-disk packet streams) into the same concept.
template <typename Op>
class SpanOpSource {
  public:
    using value_type = Op;

    explicit SpanOpSource(std::span<const Op> ops) noexcept : ops_(ops) {}

    [[nodiscard]] Expected<std::span<const Op>> next_batch(std::size_t max) {
        const std::size_t n = std::min(max, ops_.size() - cursor_);
        auto out = ops_.subspan(cursor_, n);
        cursor_ += n;
        return Expected<std::span<const Op>>(out);
    }

    [[nodiscard]] Status seek(std::uint64_t op_index) {
        if (op_index > ops_.size()) {
            return Status(ErrorCode::kInvalidArgument,
                          "seek to op " + std::to_string(op_index) +
                              " past stream of " +
                              std::to_string(ops_.size()));
        }
        cursor_ = static_cast<std::size_t>(op_index);
        return Status::ok();
    }

    [[nodiscard]] std::uint64_t size() const noexcept { return ops_.size(); }
    [[nodiscard]] std::uint64_t tell() const noexcept { return cursor_; }
    [[nodiscard]] const char* name() const noexcept { return "span"; }

  private:
    std::span<const Op> ops_;
    std::size_t cursor_ = 0;
};

template <std::ranges::contiguous_range R>
    requires std::ranges::borrowed_range<R>  // no source over a temporary
SpanOpSource(R&&) -> SpanOpSource<std::ranges::range_value_t<R>>;

enum class Mode {
    kAuto,      ///< threaded when >1 hardware thread, else inline
    kThreaded,  ///< always spawn workers (tests, tsan)
    kInline     ///< always run on the calling thread
};

/// Degradation-ladder knobs of the hardened runtime.  The defaults keep the
/// fault-free fast path indistinguishable from the legacy engine (a push
/// deadline only matters when the ring is actually full) while bounding how
/// long a dead worker can wedge the dispatcher.
struct RobustConfig {
    /// Once no lagging shard has applied a block for stall_timeout_us / 2
    /// (at least this long) while the ring is full, the dispatcher counts a
    /// backpressure wait every push_deadline_us until one does.
    std::uint32_t push_deadline_us = 500;
    /// Continuous no-progress window after which the watchdog abandons the
    /// shard's worker and drains the shard inline.
    std::uint32_t stall_timeout_us = 50'000;
    /// Ops between integrity scrub passes (0 = off).  Sequential and inline
    /// replay scrub the whole array on this cadence; threaded workers scrub
    /// their own shard's unit range, so no scrub ever races an update.
    std::uint64_t scrub_every = 0;
};

struct ShardedConfig {
    std::size_t shards = 0;         ///< worker count; 0 = default_shards()
    std::size_t batch_ops = 256;    ///< ops per block (and inline batch)
    std::size_t queue_batches = 64; ///< ring: shards * this / 2 blocks
    Mode mode = Mode::kAuto;
    RobustConfig robust{};          ///< backpressure/watchdog/scrub knobs
    /// Live metrics sink (obs/metrics.hpp).  Null (the default) disables
    /// instrumentation entirely: instrument handles are never resolved and
    /// the hot paths pay one predicted pointer test per *block*, so the
    /// disabled run stays bit-identical and within noise of pre-obs builds
    /// (priced by the obs on/off series in bench_micro_ops).
    obs::Registry* metrics = nullptr;
};

/// What a sharded replay actually ran, alongside the merged statistics.
/// Generic over the target's mergeable statistics type; `ShardedReport` is
/// the cache-replay instantiation.
template <typename Stats>
struct BasicShardedReport {
    Stats stats{};
    std::size_t shards = 0;  ///< shard count after clamping
    bool threaded = false;   ///< workers spawned (vs inline fallback)

    // -- degradation telemetry (all zero on a healthy run) ---------------
    std::uint64_t backpressure_waits = 0;  ///< full-ring push deadlines
    std::uint64_t park_wait_us = 0;   ///< total us slept awaiting park acks
    std::size_t drained_inline = 0;   ///< shards the dispatcher took over
    std::size_t abandoned_workers = 0;///< workers parked by the watchdog
    core::ScrubReport scrub{};        ///< merged scrub counters (if enabled)

    [[nodiscard]] bool degraded() const noexcept {
        return drained_inline != 0 || abandoned_workers != 0 ||
               scrub.corrupt != 0;
    }
};

using ShardedReport = BasicShardedReport<ReplayStats>;

/// Default pull size of the sequential streaming replayer: large enough to
/// amortize the per-batch virtual call, small enough that a bounded-memory
/// source stays bounded.  Results never depend on it — ops are applied one
/// at a time in stream order whatever the pull size.
inline constexpr std::size_t kSequentialPullOps = 4096;

namespace detail {

/// An op routed to its owning bucket; the dispatcher hashes exactly once.
template <typename Key, typename Value>
struct RoutedOp {
    std::uint32_t bucket = 0;
    Key key{};
    Value value{};
};

/// Per-shard control block shared between a worker and the dispatcher.
/// `applied` counts blocks whose run this shard has applied (release after
/// the stats are stored); `abandon` is the watchdog's cooperative park
/// request; `parked` is the worker's acknowledgement that it will never
/// touch the target again — the edge the dispatcher's takeover rides on.
struct alignas(64) ShardCtl {
    std::atomic<std::uint64_t> applied{0};
    std::atomic<bool> abandon{false};
    std::atomic<bool> parked{false};
};

/// One ring slot.  `bytes` holds block k's `n` ops as the dispatcher
/// copied them in; once a thread has routed the block (`routed` == k+1,
/// release), the same bytes hold those ops grouped into per-shard runs,
/// each in arrival order — the router reads every op before it writes a
/// run.  Sharing the storage keeps a slot at batch_ops ops of the larger
/// type.
template <typename Op, typename Routed>
struct alignas(64) OpBlock {
    static_assert(std::is_trivially_copyable_v<Op> &&
                      std::is_trivially_copyable_v<Routed>,
                  "ops and routed ops are copied as bytes");
    static constexpr std::size_t kStride = std::max(sizeof(Op), sizeof(Routed));

    std::unique_ptr<std::byte[]> bytes;
    std::size_t n = 0;
    std::vector<std::uint32_t> run_end;  ///< run s ends at run_end[s]
    std::atomic<std::uint64_t> routed{0};

    [[nodiscard]] const Op* ops() const {
        return std::launder(reinterpret_cast<const Op*>(bytes.get()));
    }
    [[nodiscard]] std::span<const Routed> run(std::size_t s) const {
        const std::uint32_t lo = s ? run_end[s - 1] : 0;
        return {std::launder(reinterpret_cast<const Routed*>(bytes.get())) + lo,
                run_end[s] - lo};
    }
};

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

}  // namespace detail

/// The first model of the ReplayTarget concept (replay_target.hpp): drives
/// a bare core::ParallelCache through the engine.  It is a thin, stateless
/// view — routing hashes once via the cache's bucket hash, batches go
/// through the cache's routed-batch update path, and the snapshot plane is
/// the storage's raw plane image tagged with its layout id + geometry
/// fingerprint.  Key and Value default to the storage's, so
/// `CacheReplayTarget target(cache);` deduces everything.
template <typename Cache,
          typename Key = typename Cache::storage_type::key_type,
          typename Value = typename Cache::storage_type::value_type>
class CacheReplayTarget {
  public:
    using Op = ReplayOp<Key, Value>;
    using Routed = detail::RoutedOp<Key, Value>;
    using Stats = ReplayStats;

    explicit CacheReplayTarget(Cache& cache) noexcept : cache_(&cache) {}

    [[nodiscard]] std::size_t unit_count() const {
        return cache_->unit_count();
    }

    /// Hash the op to its owning bucket — exactly once per op.
    [[nodiscard]] Routed route(const Op& op) const {
        return Routed{static_cast<std::uint32_t>(cache_->bucket(op.key)),
                      op.key, op.value};
    }

    void prefetch_unit(std::uint32_t bucket) const {
        cache_->prefetch_unit(bucket);
    }
    void prefetch_batch(std::span<const Routed> batch) const {
        for (const auto& op : batch) cache_->prefetch_unit(op.bucket);
    }

    /// Apply a routed batch in arrival order (bit-exactness), each op's
    /// unit prefetched a fixed distance ahead.  Workers additionally warm
    /// the *next* batch via prefetch_batch; the distance prefetch inside
    /// update_routed_batch is the near-window re-warm right before use.
    void apply_batch(std::span<const Routed> batch, Stats& stats) {
        cache_->update_routed_batch(
            batch, [&stats](std::size_t, std::size_t, const auto& r) {
                stats.tally(r);
            });
    }

    // -- integrity plane -------------------------------------------------
    core::ScrubReport scrub(std::size_t lo, std::size_t hi) {
        return cache_->scrub(lo, hi);
    }
    core::ScrubReport scrub_all() { return cache_->scrub_all(); }

    // -- snapshot plane (checkpoint cut) ---------------------------------
    [[nodiscard]] static std::uint32_t state_id() {
        return Storage::layout_id();
    }
    [[nodiscard]] static std::uint64_t state_fingerprint() {
        return Storage::plane_fingerprint();
    }
    /// Lends the storage's live planes: no byte is copied.
    void save_state(io::GatherImage& out) const {
        for (const auto plane : cache_->storage().planes()) out.borrow(plane);
    }
    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        return cache_->storage().load_planes(in);
    }

    // -- fault hooks (fault_plan.hpp) ------------------------------------
    // Data faults enter through the target so each target decides what "op
    // corruption" and "storage corruption" mean for it.
    template <typename Faults>
    void inject_op_faults(const Faults& faults, std::uint64_t idx,
                          Op& op) const {
        faults.mutate_key(idx, op.key);
    }
    template <typename Faults>
    void inject_storage_faults(const Faults& faults, std::uint64_t idx) {
        faults.corrupt_storage(idx, cache_->storage());
    }

    [[nodiscard]] Cache& cache() const noexcept { return *cache_; }

  private:
    using Storage =
        std::remove_cvref_t<decltype(std::declval<const Cache&>().storage())>;
    Cache* cache_;
};

// The bare array has every optional plane (replay_target.hpp).
namespace detail {
using FlowArrayTarget = CacheReplayTarget<core::ParallelCache<
    core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey, std::uint32_t>>;
static_assert(ReplayTarget<FlowArrayTarget>);
static_assert(PrefetchUnitTarget<FlowArrayTarget> &&
              ScrubTarget<FlowArrayTarget> &&
              StorageFaultTarget<FlowArrayTarget>);
}  // namespace detail

/// Everything a checkpoint sink needs to capture a consistent cut of a
/// running sharded replay.  Invariant: the target holds exactly the effects
/// of the op prefix [0, cursor), `stats` is the merged outcome of that
/// prefix (stats.ops == cursor), and `shard_stats[t]` is shard t's share —
/// which doubles as shard t's op cursor, since every shard has applied all
/// of its ops below the cut.  The span aliases dispatcher-owned scratch:
/// copy it before returning from the sink.  Generic over the target's
/// statistics type; `CheckpointCut` is the cache-replay instantiation.
template <typename Stats>
struct BasicCheckpointCut {
    std::uint64_t cursor = 0;             ///< ops applied (prefix length)
    std::uint64_t delivered_batches = 0;  ///< dispatched blocks so far
    std::span<const Stats> shard_stats;   ///< per-shard split of stats
    Stats stats{};
    std::size_t shards = 0;
    bool threaded = false;
    std::uint64_t backpressure_waits = 0;
    std::uint64_t park_wait_us = 0;
    std::size_t drained_inline = 0;
    std::size_t abandoned_workers = 0;
    core::ScrubReport scrub{};
};

using CheckpointCut = BasicCheckpointCut<ReplayStats>;

namespace detail {

/// Disabled checkpoint hook: the default instantiation folds the trigger
/// check and the quiesce machinery away entirely (if constexpr on
/// kEnabled), so a plain replay_target_sharded_stream pays nothing.
/// target_checkpoint.hpp's TargetDispatchCheckpointer is the enabled
/// counterpart.
struct NoCheckpoint {
    static constexpr bool kEnabled = false;
    [[nodiscard]] bool due(std::uint64_t /*delivered*/) const noexcept {
        return false;
    }
    template <typename Stats>
    void emit(const BasicCheckpointCut<Stats>& /*cut*/) const noexcept {}
    [[nodiscard]] static constexpr bool stop_requested() noexcept {
        return false;
    }
};

/// Shared engine behind every sharded entry point —
/// replay_target_sharded_stream below and the checkpointed, resumed and
/// supervised replays (target_checkpoint.hpp, supervisor.hpp).  `Target` is any
/// model of the ReplayTarget concept (replay_target.hpp) — the engine only
/// routes, batches, prefetches and applies; what an op *means* belongs to
/// the target.  `Source` is any model of the OpSource concept (SpanOpSource
/// above, op_source.hpp for on-disk traces); the engine pulls `batch_ops`
/// records at a time, so its resident set is O(ring) plus whatever the
/// source itself stages.  `Ckpt` decides at compile time whether the
/// dispatch loop carries checkpoint triggers; `ckpt.due(delivered)` is
/// polled after each delivered block and `ckpt.emit(cut)` runs with every
/// worker quiesced.
///
/// The run covers the ops [source.tell(), source.size()) at entry, and all
/// indices — fault ordinals, checkpoint cursors — are relative to the entry
/// position: seek-based resume (target_checkpoint.hpp) positions the
/// source at the checkpoint cursor instead of re-reading the prefix.
///
/// A source failure (rot discovered mid-stream, a file that shrank under
/// the reader) aborts the run at a block boundary: no further blocks are
/// delivered, the published ones are applied, the workers join, and the
/// Status is returned after the join — the target is left in a valid (but
/// partial) state and must be discarded or re-seeded by the caller.
template <typename Target, typename Source, typename Faults, typename Ckpt>
Expected<BasicShardedReport<typename Target::Stats>>
replay_sharded_stream_impl(Target& target, Source& source,
                           const ShardedConfig& cfg, const Faults& faults,
                           Ckpt& ckpt) {
    using Op = typename Target::Op;
    using Routed = typename Target::Routed;
    using Stats = typename Target::Stats;
    using Batch = std::vector<Routed>;
    static_assert(
        std::is_same_v<std::remove_cvref_t<typename Source::value_type>, Op>,
        "op source value_type must match the target's Op type");

    const std::size_t requested = cfg.shards ? cfg.shards : default_shards();
    const ShardPlan plan = ShardPlan::make(target.unit_count(), requested);
    const std::size_t W = plan.shards();
    const std::size_t batch_ops = cfg.batch_ops ? cfg.batch_ops : 256;
    const std::uint64_t scrub_every = cfg.robust.scrub_every;
    const std::uint64_t remaining = source.size() - source.tell();

    const bool threaded =
        cfg.mode == Mode::kThreaded ||
        (cfg.mode == Mode::kAuto && W > 1 && threads_profitable());

    BasicShardedReport<Stats> report;
    report.shards = W;
    report.threaded = threaded;

    // Obs instruments (null registry = fully disabled).  Handles are
    // resolved once here; the hot paths below test one pointer per block.
    // Timing (steady_clock reads around apply and route) only happens when
    // the histogram handles are live, so the disabled run reads no clock.
    obs::Counter* obs_batches = nullptr;
    obs::Histogram* obs_batch_ns = nullptr;
    obs::Histogram* obs_route_ns = nullptr;
    obs::Counter* obs_by_dispatcher = nullptr;
    obs::Counter* obs_wait_ns = nullptr;
    obs::Counter* obs_backpressure = nullptr;
    obs::Counter* obs_park_us = nullptr;
    obs::Counter* obs_drained = nullptr;
    obs::Counter* obs_abandoned = nullptr;
    std::vector<obs::Gauge*> obs_depth;  ///< per-shard blocks not yet applied
    if (cfg.metrics != nullptr) {
        obs_batches = cfg.metrics->counter("replay_batches_applied");
        obs_batch_ns = cfg.metrics->histogram("replay_batch_apply_ns");
        obs_route_ns = cfg.metrics->histogram("replay_block_route_ns");
        obs_by_dispatcher =
            cfg.metrics->counter("replay_blocks_routed_by_dispatcher");
        obs_wait_ns = cfg.metrics->counter("replay_dispatch_wait_ns");
        obs_backpressure = cfg.metrics->counter("replay_backpressure_waits");
        obs_park_us = cfg.metrics->counter("replay_park_wait_us");
        obs_drained = cfg.metrics->counter("replay_drained_inline");
        obs_abandoned = cfg.metrics->counter("replay_abandoned_workers");
        obs_depth.resize(W);
        for (std::size_t s = 0; s < W; ++s) {
            obs_depth[s] = cfg.metrics->gauge(
                "replay_shard" + std::to_string(s) + "_queue_depth");
        }
    }
    // One timed apply shared by every path (worker, takeover, inline).
    const auto apply_timed = [&target, obs_batches, obs_batch_ns](
                                 std::span<const Routed> batch, Stats& into) {
        if (obs_batch_ns != nullptr) {
            const auto t0 = std::chrono::steady_clock::now();
            target.apply_batch(batch, into);
            obs_batch_ns->record(detail::ns_since(t0));
            obs_batches->add(1);
        } else {
            target.apply_batch(batch, into);
        }
    };

    // Cache-line-padded per-shard results (workers write concurrently).
    struct alignas(64) PaddedStats {
        Stats s{};
        core::ScrubReport scrub;
    };
    std::vector<PaddedStats> results(W);

    if (!threaded) {
        // Inline path: batched dispatch on the calling thread. Ops stay in
        // arrival order (per-unit order is what equivalence needs), so no
        // per-shard scatter is paid; each block gets a two-phase
        // route-and-prefetch then update pass, overlapping the unit array's
        // random-access latency with hashing of the following ops.  Data
        // faults (plane/op corruption) inject here, and the scrubber runs on
        // its cadence between blocks — both on the single owning thread.
        Batch block;
        block.reserve(batch_ops);
        [[maybe_unused]] std::uint64_t until_scrub = scrub_every;
        std::uint64_t delivered = 0;
        std::uint64_t base = 0;
        while (base < remaining) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch_ops, remaining - base));
            auto pulled = source.next_batch(want);
            if (!pulled.is_ok()) return pulled.status();
            const std::span<const Op> chunk = pulled.value();
            if (chunk.empty()) {
                // Contract violation guard: the source promised more ops
                // than it delivered without reporting why.
                return invalid_state(
                    "op source '" + std::string(source.name()) +
                    "' ended at op " + std::to_string(base) + " of " +
                    std::to_string(remaining));
            }
            const std::size_t n = chunk.size();
            block.clear();
            for (std::size_t i = 0; i < n; ++i) {
                const Routed r = [&] {
                    if constexpr (Faults::kEnabled) {
                        const std::uint64_t idx = base + i;
                        Op op = chunk[i];
                        if constexpr (StorageFaultTarget<Target>) {
                            target.inject_storage_faults(faults, idx);
                        }
                        target.inject_op_faults(faults, idx, op);
                        return target.route(op);
                    } else {
                        return target.route(chunk[i]);
                    }
                }();
                if constexpr (PrefetchUnitTarget<Target>) {
                    target.prefetch_unit(r.bucket);
                }
                block.push_back(r);
            }
            apply_timed(std::span<const Routed>(block), results[0].s);
            ++delivered;
            base += n;
            if constexpr (ScrubTarget<Target>) {
                if (scrub_every != 0) {
                    // Carry the op remainder across blocks so the scrub
                    // fires on exactly the same op counts as the sequential
                    // path: a block of n ops may cross the cadence boundary
                    // several times (scrub_every < n) or not at all, and the
                    // leftover distance counts against the next block.
                    std::uint64_t left = n;
                    while (left >= until_scrub) {
                        left -= until_scrub;
                        results[0].scrub.merge(target.scrub_all());
                        until_scrub = scrub_every;
                    }
                    until_scrub -= left;
                }
            }
            if constexpr (Ckpt::kEnabled) {
                if (base < remaining && ckpt.due(delivered)) {
                    BasicCheckpointCut<Stats> cut;
                    cut.cursor = base;
                    cut.delivered_batches = delivered;
                    cut.shard_stats =
                        std::span<const Stats>(&results[0].s, 1);
                    cut.stats = results[0].s;
                    cut.shards = W;
                    cut.threaded = false;
                    cut.scrub = results[0].scrub;
                    ckpt.emit(cut);
                    // Cooperative early stop (crash injection / supervisor
                    // shutdown): end the run at the cut just emitted, so
                    // the report covers exactly the checkpointed prefix.
                    if (ckpt.stop_requested()) break;
                }
            }
        }
    } else {
        // Threaded path: the dispatcher publishes op blocks into one ring
        // and any thread claims, routes and splits them into per-shard runs
        // (file header).  The ring holds no more bytes than W queues of
        // queue_batches batches of batch_ops routed ops.
        using Block = detail::OpBlock<Op, Routed>;
        const std::size_t slots = std::max<std::size_t>(
            2, W * (cfg.queue_batches ? cfg.queue_batches : 64) *
                   sizeof(Routed) / Block::kStride);
        std::vector<Block> ring(slots);
        for (auto& b : ring) {
            b.bytes = std::make_unique<std::byte[]>(batch_ops * Block::kStride);
            b.run_end.resize(W);
        }
        std::vector<detail::ShardCtl> ctl(W);
        alignas(64) std::atomic<std::uint64_t> published{0};
        alignas(64) std::atomic<std::uint64_t> claimed{0};
        std::atomic<bool> closed{false};
        // Shards the dispatcher has taken over, and their stats from then on.
        std::vector<char> inlined(W, 0);
        std::vector<Stats> drained(W);
        [[maybe_unused]] std::vector<Stats> cut_stats(W);
        Status stream_error = Status::ok();

        // Per-thread routing scratch: the block in arrival order plus each
        // op's owner, counting-sorted into the slot's runs.
        struct Scratch {
            std::vector<Routed> routed;
            std::vector<std::uint32_t> owner;
            std::vector<std::uint32_t> fill;
        };
        const auto make_scratch = [&] {
            return Scratch{std::vector<Routed>(batch_ops),
                           std::vector<std::uint32_t>(batch_ops),
                           std::vector<std::uint32_t>(W)};
        };
        // Claim the oldest published, unrouted block and route it.  Returns
        // false when every published block is already claimed.
        const auto route_one = [&](Scratch& sc) {
            std::uint64_t k = claimed.load(std::memory_order_relaxed);
            do {
                if (k >= published.load(std::memory_order_acquire)) {
                    return false;
                }
            } while (!claimed.compare_exchange_weak(
                k, k + 1, std::memory_order_relaxed));
            const auto t0 = obs_route_ns != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
            auto& blk = ring[k % slots];
            const std::size_t n = blk.n;
            // The block was written on another core and its runs will be
            // written here: request every line up front, for writing, so
            // the transfers overlap instead of stalling the loops below.
            for (std::size_t off = 0; off < n * Block::kStride; off += 64) {
                __builtin_prefetch(blk.bytes.get() + off, 1, 3);
            }
            std::fill(sc.fill.begin(), sc.fill.end(), 0u);
            for (std::size_t i = 0; i < n; ++i) {
                sc.routed[i] = target.route(blk.ops()[i]);
                sc.owner[i] =
                    static_cast<std::uint32_t>(plan.owner(sc.routed[i].bucket));
                ++sc.fill[sc.owner[i]];
            }
            std::uint32_t at = 0;
            for (std::size_t s = 0; s < W; ++s) {
                const std::uint32_t c = sc.fill[s];
                sc.fill[s] = at;
                blk.run_end[s] = at += c;
            }
            for (std::size_t i = 0; i < n; ++i) {
                std::memcpy(blk.bytes.get() +
                                sc.fill[sc.owner[i]]++ * sizeof(Routed),
                            &sc.routed[i], sizeof(Routed));
            }
            blk.routed.store(k + 1, std::memory_order_release);
            if (obs_route_ns != nullptr) {
                obs_route_ns->record(detail::ns_since(t0));
            }
            return true;
        };
        // Idle threads re-poll for a while before yielding: a yield can
        // cost tens of microseconds on a virtualized host, longer than a
        // block takes to route.  No pause instruction in the poll — on a VM
        // a pause loop can trap to the hypervisor, which may deschedule it.
        const auto backoff = [](std::uint32_t& idle) {
            if (++idle <= 4096) {
                std::atomic_signal_fence(std::memory_order_seq_cst);
            } else {
                std::this_thread::yield();
            }
        };

        // Bounded-backoff wait for a worker's park acknowledgement: sleep
        // 1us doubling to ~1ms, accounting the slept time (park_wait_us).
        // Unbounded in total — see the cooperative-park note up top.
        const auto wait_for_park = [&](std::size_t s) {
            std::uint32_t sleep_us = 1;
            while (!ctl[s].parked.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(sleep_us));
                report.park_wait_us += sleep_us;
                if (obs_park_us != nullptr) obs_park_us->add(sleep_us);
                if (sleep_us < 1024) sleep_us <<= 1;
            }
        };
        // The dispatcher owns a parked shard from its cursor on; the worker
        // stopped at a block boundary, so per-unit order holds.
        const auto takeover = [&](std::size_t s) {
            inlined[s] = 1;
            ++report.drained_inline;
            if (obs_drained != nullptr) obs_drained->add(1);
        };
        // Apply every routed run of the dispatcher-owned shards.
        const auto apply_owned = [&] {
            const auto pub = published.load(std::memory_order_relaxed);
            for (std::size_t s = 0; s < W; ++s) {
                if (!inlined[s]) continue;
                auto k = ctl[s].applied.load(std::memory_order_relaxed);
                for (; k < pub; ++k) {
                    const auto& blk = ring[k % slots];
                    if (blk.routed.load(std::memory_order_acquire) != k + 1) {
                        break;
                    }
                    const auto run = blk.run(s);
                    target.prefetch_batch(run);
                    if (!run.empty()) apply_timed(run, drained[s]);
                    ctl[s].applied.store(k + 1, std::memory_order_release);
                }
            }
        };
        const auto lowest = [&] {
            std::uint64_t low = ~std::uint64_t{0};
            for (const auto& c : ctl) {
                low = std::min(low, c.applied.load(std::memory_order_acquire));
            }
            return low;
        };

        const auto push_deadline = std::chrono::microseconds(
            cfg.robust.push_deadline_us ? cfg.robust.push_deadline_us : 500);
        const auto stall_timeout = std::chrono::microseconds(
            cfg.robust.stall_timeout_us ? cfg.robust.stall_timeout_us
                                        : 50'000);
        // Backpressure waits start once the pipeline has stood still for
        // half the watchdog timeout: shorter gaps are scheduling noise
        // (a preempted worker, a slow step), not a stalled consumer.
        const auto grace = std::max(push_deadline, stall_timeout / 2);
        Scratch dsc = make_scratch();
        std::vector<std::uint64_t> last(W);
        std::vector<std::chrono::steady_clock::time_point> since(W);
        // Wait until every shard's cursor reaches `upto`, returning the
        // lowest cursor.  Meanwhile route (see below), apply owned
        // shards, and walk the degradation ladder for a lagging
        // worker: parked → takeover; no progress for stall_timeout →
        // abandon, wait for the park, takeover.  `full` marks a wait on a
        // full ring, which counts a backpressure wait every push_deadline
        // once no lagging shard has applied a block for `grace`.
        const auto await = [&](std::uint64_t upto, bool full) {
            auto low = lowest();
            if (low >= upto) return low;
            const auto t_in = std::chrono::steady_clock::now();
            for (std::size_t s = 0; s < W; ++s) {
                last[s] = ctl[s].applied.load(std::memory_order_relaxed);
                since[s] = t_in;
            }
            auto deadline = t_in + grace;
            std::uint32_t idle = 0;
            for (;;) {
                apply_owned();
                if ((low = lowest()) >= upto) break;
                // Route the block being waited for if no worker has claimed
                // it, or any block once routing lags publishing by W blocks.
                // Taking each newly published block would starve the
                // workers of routing and serialize it here.
                const auto c = claimed.load(std::memory_order_relaxed);
                if ((c < upto ||
                     published.load(std::memory_order_relaxed) - c >= W) &&
                    route_one(dsc)) {
                    if (obs_by_dispatcher != nullptr) obs_by_dispatcher->add(1);
                    continue;
                }
                const auto now = std::chrono::steady_clock::now();
                for (std::size_t s = 0; s < W; ++s) {
                    const auto p =
                        ctl[s].applied.load(std::memory_order_acquire);
                    if (inlined[s] || p >= upto) continue;
                    if (ctl[s].parked.load(std::memory_order_acquire)) {
                        takeover(s);  // worker died on its own
                    } else if (p != last[s]) {
                        last[s] = p;  // slow but alive: keep going
                        since[s] = now;
                        deadline = now + grace;
                    } else if (now - since[s] >= stall_timeout) {
                        ctl[s].abandon.store(true, std::memory_order_release);
                        ++report.abandoned_workers;
                        if (obs_abandoned != nullptr) obs_abandoned->add(1);
                        wait_for_park(s);
                        takeover(s);
                    }
                }
                if (full && now >= deadline) {
                    ++report.backpressure_waits;
                    if (obs_backpressure != nullptr) obs_backpressure->add(1);
                    deadline = now + push_deadline;
                }
                backoff(idle);
            }
            if (obs_wait_ns != nullptr) {
                obs_wait_ns->add(detail::ns_since(t_in));
            }
            return low;
        };

        {
            std::vector<std::jthread> workers;
            workers.reserve(W);
            for (std::size_t s = 0; s < W; ++s) {
                workers.emplace_back([&, s] {
                    Scratch sc = make_scratch();
                    std::uint64_t k = 0;  // next block to apply
                    [[maybe_unused]] std::uint64_t since_scrub = 0;
                    std::uint32_t idle = 0;
                    // Block-boundary checks first: cooperative abandon and
                    // injected stalls park the worker before block k.
                    while (!ctl[s].abandon.load(std::memory_order_acquire)) {
                        if constexpr (Faults::kEnabled) {
                            if (faults.worker_parks(s, k)) break;
                        }
                        const auto& blk = ring[k % slots];
                        if (blk.routed.load(std::memory_order_acquire) ==
                            k + 1) {
                            if constexpr (Faults::kEnabled) {
                                if (const auto us =
                                        faults.batch_delay_us(s, k)) {
                                    std::this_thread::sleep_for(
                                        std::chrono::microseconds(us));
                                }
                            }
                            // Warm the next run's units, then apply this one.
                            const auto& nxt = ring[(k + 1) % slots];
                            if (nxt.routed.load(std::memory_order_acquire) ==
                                k + 2) {
                                target.prefetch_batch(nxt.run(s));
                            }
                            const auto run = blk.run(s);
                            if (!run.empty()) apply_timed(run, results[s].s);
                            if constexpr (ScrubTarget<Target>) {
                                since_scrub += run.size();
                                if (scrub_every != 0 &&
                                    since_scrub >= scrub_every) {
                                    // Only this shard's own units: no race.
                                    const auto [lo, hi] = plan.range(s);
                                    results[s].scrub.merge(
                                        target.scrub(lo, hi));
                                    since_scrub = 0;
                                }
                            }
                            // Stats are in place before the cursor moves.
                            ctl[s].applied.store(++k,
                                                 std::memory_order_release);
                            idle = 0;
                        } else if (route_one(sc)) {
                            idle = 0;
                        } else if (closed.load(std::memory_order_acquire)) {
                            return;
                        } else {
                            backoff(idle);
                        }
                    }
                    ctl[s].parked.store(true, std::memory_order_release);
                });
            }

            // Dispatch: pull, copy into the next free slot, publish.
            std::uint64_t pub = 0;   // blocks published
            std::uint64_t base = 0;  // ops published
            std::uint64_t low = 0;   // every cursor is at least this
            while (base < remaining) {
                if (pub - low >= slots) low = await(pub - slots + 1, true);
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(batch_ops, remaining - base));
                auto pulled = source.next_batch(want);
                if (!pulled.is_ok()) {
                    stream_error = pulled.status();
                    break;
                }
                const std::span<const Op> chunk = pulled.value();
                if (chunk.empty()) {
                    stream_error = invalid_state(
                        "op source '" + std::string(source.name()) +
                        "' ended at op " + std::to_string(base) + " of " +
                        std::to_string(remaining));
                    break;
                }
                auto& blk = ring[pub % slots];
                std::memcpy(blk.bytes.get(), chunk.data(),
                            chunk.size() * sizeof(Op));
                blk.n = chunk.size();
                published.store(++pub, std::memory_order_release);
                base += chunk.size();
                apply_owned();
                for (std::size_t s = 0; s < obs_depth.size(); ++s) {
                    obs_depth[s]->set(static_cast<std::int64_t>(
                        pub - ctl[s].applied.load(std::memory_order_relaxed)));
                }
                if constexpr (Ckpt::kEnabled) {
                    if (base < remaining && ckpt.due(pub)) {
                        // Consistent cut: publish nothing more until every
                        // cursor reaches the last block, so the target holds
                        // exactly the op prefix [0, base) and no thread
                        // writes it until the next publish.
                        low = await(pub, false);
                        BasicCheckpointCut<Stats> cut;
                        cut.cursor = base;
                        cut.delivered_batches = pub;
                        for (std::size_t t = 0; t < W; ++t) {
                            cut_stats[t] = results[t].s;
                            cut_stats[t].merge(drained[t]);
                            cut.stats.merge(cut_stats[t]);
                            cut.scrub.merge(results[t].scrub);
                        }
                        cut.shard_stats = cut_stats;
                        cut.shards = W;
                        cut.threaded = true;
                        cut.backpressure_waits = report.backpressure_waits;
                        cut.park_wait_us = report.park_wait_us;
                        cut.drained_inline = report.drained_inline;
                        cut.abandoned_workers = report.abandoned_workers;
                        ckpt.emit(cut);
                        // Cooperative early stop (crash injection /
                        // supervisor shutdown): the report covers exactly
                        // the checkpointed prefix.
                        if (ckpt.stop_requested()) break;
                    }
                }
            }
            // Every cursor reaches the last published block — a source
            // failure included, so the target holds a whole prefix — then
            // the workers exit.
            await(pub, false);
            closed.store(true, std::memory_order_release);
        }  // jthreads join here
        if (!stream_error.is_ok()) return stream_error;
        for (const auto& d : drained) report.stats.merge(d);
    }

    for (std::size_t s = 0; s < W; ++s) {
        report.stats.merge(results[s].s);
        report.scrub.merge(results[s].scrub);
    }
    return report;
}

}  // namespace detail

/// Sequential reference replay of any ReplayTarget over any op source: one
/// op at a time on the calling thread, in stream order, pulled in
/// `pull_ops`-record batches.  This is the oracle the sharded modes are
/// proven bit-identical against (tests/systems/, tests/replay/).  Fails
/// only when the source fails.
template <typename Target, typename Source>
[[nodiscard]] Expected<typename Target::Stats>
replay_target_sequential_stream(Target& target, Source& source,
                                std::size_t pull_ops = kSequentialPullOps) {
    typename Target::Stats stats{};
    for (;;) {
        auto pulled = source.next_batch(pull_ops ? pull_ops : 1);
        if (!pulled.is_ok()) return pulled.status();
        const auto chunk = pulled.value();
        if (chunk.empty()) break;
        for (const auto& op : chunk) {
            const typename Target::Routed r = target.route(op);
            target.apply_batch(
                std::span<const typename Target::Routed>(&r, 1), stats);
        }
    }
    return stats;
}

/// Sharded replay of any ReplayTarget through the shared engine: inline
/// batched on one thread or threaded across shard workers per `cfg.mode`,
/// with the full degradation ladder (backpressure, watchdog takeover,
/// order-preserving inline drain) and fault hooks.  `Faults` is the
/// injection hook set: fault::NoFaults (default) compiles every hook away;
/// fault::InjectedFaults applies a FaultPlan (worker stalls/delays in
/// threaded mode; plane/op corruption in inline mode, where a single thread
/// owns the target).  The engine pulls `cfg.batch_ops`-record chunks, so
/// its footprint is O(batch) and an on-disk trace far larger than RAM
/// replays through a bounded-memory source (op_source.hpp over
/// trace::MmapSource).  Covers the ops [source.tell(),
/// source.size()); statistics and final target state are bit-identical to
/// replay_target_sequential_stream for any shard geometry.  Fails when the
/// source fails mid-stream; the target is then left in a valid but partial
/// state.
template <typename Target, typename Source, typename Faults = fault::NoFaults>
[[nodiscard]] Expected<BasicShardedReport<typename Target::Stats>>
replay_target_sharded_stream(Target& target, Source& source,
                             const ShardedConfig& cfg = {},
                             const Faults& faults = {}) {
    detail::NoCheckpoint no_ckpt;
    return detail::replay_sharded_stream_impl(target, source, cfg, faults,
                                              no_ckpt);
}

/// The packet-to-op mapping of the LruTable/LruMon-style update stream:
/// key = 5-tuple flow, value = wire length.
struct PacketToReplayOp {
    [[nodiscard]] ReplayOp<FlowKey, std::uint32_t> operator()(
        const PacketRecord& p) const noexcept {
        return {p.flow, p.len};
    }
};

/// A packet trace as replay operations, mapped by PacketToReplayOp.
[[nodiscard]] std::vector<ReplayOp<FlowKey, std::uint32_t>> ops_from_packets(
    std::span<const PacketRecord> trace);

}  // namespace p4lru::replay
