// The ReplayTarget concept: what the sharded replay engine drives.
//
// The engine (replay.hpp) is a hardened parallel replay runtime — a ring of
// op blocks routed by whichever thread claims them, prefetch pipelining, a
// degradation ladder for dead workers, consistent-cut checkpointing,
// deterministic fault injection.  This header names the actual contract
// between the engine and the thing it drives, so the bare
// core::ParallelCache and the three paper systems (LRUmon, LRUtable,
// LRUindex) run through the *same* engine with bit-identical reports
// across every mode.
//
// A ReplayTarget partitions its state into `unit_count()` disjoint units
// ("buckets"); the engine carves that range into contiguous per-shard
// sub-ranges (ShardPlan) and guarantees that each bucket's ops are applied
// by exactly one owner, in arrival order.  Everything else — what an op
// means, what the statistics count — belongs to the target.
//
// Requirements (DESIGN.md §11 has the full table):
//
//   types     Op          one logical trace operation
//             Routed      Op + owning bucket (`.bucket`, uint32); hashed
//                         exactly once by route()
//             Stats       mergeable statistics: default-constructed ==
//                         "empty", merge() associative/commutative over
//                         disjoint op sets, operator==, and an `ops`
//                         counter equal to the ops applied
//   routing   route(op)               -> Routed (pure, no state touched)
//             unit_count()            -> number of buckets
//   apply     apply_batch(span, st)   apply routed ops in span order;
//                                     every engine mode preserves per-
//                                     bucket arrival order, so a target is
//                                     deterministic iff each op's effect
//                                     depends only on its bucket's state
//             prefetch_batch(span)    best-effort cache warm of a whole
//                                     batch (may no-op)
//   snapshot  state_id()/state_fingerprint()  static layout guards
//             save_state(gather)      append the full mutable state to an
//                                     io::GatherImage (see below)
//             load_state(span)->bool  restore it (shape mismatch -> false)
//   faults    inject_op_faults(faults, idx, op&)  pre-route op corruption
//                                                 hook (single-owner paths
//                                                 only: sequential/inline)
//
// The snapshot plane fills a gather image (common/byte_io.hpp), not a
// buffer: a target appends small owned bytes (framing, serialized sketches
// and tables) and lends spans of its live memory (storage planes), so the
// checkpoint path CRCs and writes the state where it lives.  Lent spans
// are valid only until the target's next apply (or load_state); a caller
// that keeps the image past that must flatten() it first —
// target_checkpoint.hpp's TargetSnapshot -> TargetCheckpoint conversion is
// that one copy.  load_state reads the flattened image.
//
// Optional planes — a target has one only if it has something to do there.
// Each is a named concept; the engine tests it with `if constexpr` and
// skips the call for a target without it, and each target static_asserts
// the planes it means to have, so a misspelt signature fails the build
// instead of silently dropping the plane:
//
//   PrefetchUnitTarget    prefetch_unit(b)   warm one bucket ahead of the
//                                            inline path's apply
//   ScrubTarget           scrub(lo,hi)/scrub_all() -> core::ScrubReport
//                                            integrity pass over a bucket
//                                            range (robust.scrub_every)
//   StorageFaultTarget    inject_storage_faults(faults, idx)  plane
//                                            corruption hook (single-owner
//                                            paths only)
//
// Mergeability invariant: a target's Stats must be a sum of per-op
// contributions where each contribution depends only on the op's own
// bucket's history.  Then per-shard Stats over disjoint bucket sets merge
// to exactly the sequential totals, whatever the shard geometry — the
// property every equivalence suite (tests/systems/) checks.  Derived
// quantities (rates, averages) must live *outside* Stats and be computed
// from the merged integer sums, never merged themselves.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/core/unit_storage.hpp"
#include "p4lru/fault/fault_plan.hpp"

namespace p4lru::replay {

/// Statistics the engine can split across shards and re-merge losslessly.
template <typename S>
concept MergeableStats =
    std::default_initializable<S> && std::equality_comparable<S> &&
    requires(S a, const S b) {
        a.merge(b);
        { b.ops } -> std::convertible_to<std::uint64_t>;
    };

/// The contract between detail::replay_sharded_stream_impl and the thing
/// it drives.  Fault hooks are template member functions and therefore not
/// expressible as concept requirements in general; they are checked against
/// the fault::NoFaults instantiation, which every Faults parameter must
/// structurally match.
template <typename T>
concept ReplayTarget =
    MergeableStats<typename T::Stats> &&
    requires(T t, const T ct, const typename T::Op& op,
             typename T::Op& mutable_op, const typename T::Routed& routed,
             std::span<const typename T::Routed> batch,
             typename T::Stats& stats, io::GatherImage& out,
             std::span<const std::byte> in, const fault::NoFaults& no_faults) {
        // routing
        { ct.unit_count() } -> std::convertible_to<std::size_t>;
        { ct.route(op) } -> std::same_as<typename T::Routed>;
        { routed.bucket } -> std::convertible_to<std::uint32_t>;
        // apply + prefetch
        t.apply_batch(batch, stats);
        ct.prefetch_batch(batch);
        // snapshot plane
        { T::state_id() } -> std::convertible_to<std::uint32_t>;
        { T::state_fingerprint() } -> std::convertible_to<std::uint64_t>;
        ct.save_state(out);
        { t.load_state(in) } -> std::convertible_to<bool>;
        // op fault hook (checked on the NoFaults instantiation)
        t.inject_op_faults(no_faults, std::uint64_t{0}, mutable_op);
    };

/// Optional plane: warm one bucket's state ahead of its apply.
template <typename T>
concept PrefetchUnitTarget =
    requires(const T ct) { ct.prefetch_unit(std::uint32_t{0}); };

/// Optional plane: integrity scrub over a bucket range and over all of it.
template <typename T>
concept ScrubTarget = requires(T t, std::size_t lo, std::size_t hi) {
    { t.scrub(lo, hi) } -> std::same_as<core::ScrubReport>;
    { t.scrub_all() } -> std::same_as<core::ScrubReport>;
};

/// Optional plane: storage corruption hook (checked on NoFaults).
template <typename T>
concept StorageFaultTarget = requires(T t, const fault::NoFaults& no_faults) {
    t.inject_storage_faults(no_faults, std::uint64_t{0});
};

}  // namespace p4lru::replay
