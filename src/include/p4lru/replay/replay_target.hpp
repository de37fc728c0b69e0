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
//             prefetch_unit(b)        best-effort cache warm (may no-op)
//             prefetch_batch(span)    likewise for a whole batch
//   planes    materialized()/materialize()/first_touch_range(lo,hi)/
//             mark_materialized()     deferred-init first-touch protocol
//                                     (NUMA placement); eagerly-built
//                                     targets return materialized()==true
//             scrub(lo,hi)/scrub_all()-> core::ScrubReport integrity pass
//                                     over a bucket range (may be empty)
//   snapshot  state_id()/state_fingerprint()  static layout guards
//             save_state(out)         serialize the full mutable state
//             load_state(span)->bool  restore it (shape mismatch -> false)
//   faults    inject_op_faults(faults, idx, op&)      pre-route op
//                                                     corruption hook
//             inject_storage_faults(faults, idx)      plane corruption
//                                                     hook; both run only
//                                                     on single-owner
//                                                     paths (sequential /
//                                                     inline)
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
#include <vector>

#include "p4lru/core/unit_storage.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/replay.hpp"

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
             typename T::Stats& stats, std::size_t lo, std::size_t hi,
             std::vector<std::byte>& out, std::span<const std::byte> in,
             const fault::NoFaults& no_faults) {
        // routing
        { ct.unit_count() } -> std::convertible_to<std::size_t>;
        { ct.route(op) } -> std::same_as<typename T::Routed>;
        { routed.bucket } -> std::convertible_to<std::uint32_t>;
        // apply + prefetch
        t.apply_batch(batch, stats);
        ct.prefetch_unit(std::uint32_t{0});
        ct.prefetch_batch(batch);
        // first-touch plane
        { ct.materialized() } -> std::convertible_to<bool>;
        t.materialize();
        t.first_touch_range(lo, hi);
        t.mark_materialized();
        // integrity plane
        { t.scrub(lo, hi) } -> std::same_as<core::ScrubReport>;
        { t.scrub_all() } -> std::same_as<core::ScrubReport>;
        // snapshot plane
        { T::state_id() } -> std::convertible_to<std::uint32_t>;
        { T::state_fingerprint() } -> std::convertible_to<std::uint64_t>;
        ct.save_state(out);
        { t.load_state(in) } -> std::convertible_to<bool>;
        // fault hooks (checked on the NoFaults instantiation)
        t.inject_op_faults(no_faults, std::uint64_t{0}, mutable_op);
        t.inject_storage_faults(no_faults, std::uint64_t{0});
    };

}  // namespace p4lru::replay
