// LruTable (Section 3.1): a data-plane NAT whose fast path is a cache of
// control-plane table entries.
//
// Protocol per packet with virtual address va (the packet's virtual
// destination address, as in the paper):
//   * cache hit with a real address  -> fast path, base latency;
//   * cache hit on a PLACEHOLDER     -> the fill for this flow is still in
//     flight: the packet takes the slow path (latency dT) but does NOT
//     schedule another fill and does not traverse the cache again;
//   * cache miss                     -> slow path (latency dT); the cache
//     inserts a placeholder and the control-plane lookup result re-enters
//     the data plane after dT, replacing the placeholder with the real
//     address (a normal write-path cache update).
//
// The replacement policy is pluggable so the comparative benches (Figure 12)
// run the identical protocol over P4LRU3 / Timeout / Elastic / Coco / ideal
// LRU.
//
// LruTableTarget is the system as a ReplayTarget (DESIGN.md §11),
// partitioned by virtual address so the sharded replay engine can drive it
// in every mode with bit-identical reports.  With one partition it is
// exactly the paper's system: one cache, one pending-fill queue, global
// arrival order.
//
// Partitioning: packet -> partition mix64(dst_ip) % G; a partition owns an
// independent translation-cache policy and its own pending-fill queue.  The
// slow path of a miss becomes visible `slow_path_delay` later *within the
// same partition* (fills drain against the partition's own packet clock), so
// every effect depends only on the owning partition's history and per-shard
// statistics merge losslessly.  The NAT mapping itself is a pure function
// (NatTable::lookup), shared read-only across partitions.
//
// Latency is accumulated as an integer nanosecond sum (not a running float
// mean) so merging shard statistics is exact and order-free; the report
// derives the average from the merged integers.
//
// cfg.track_similarity needs one partition: the similarity metric is defined
// over the *global* access order, which partitioned replay does not
// preserve, so the constructor rejects it for G > 1 rather than report a
// wrong number.  The tracker is not part of the state image, so load_state
// refuses to restore while tracking (a resumed run would score only the
// suffix).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/cache/similarity.hpp"
#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay_target.hpp"

namespace p4lru::systems::lrutable {

/// Virtual address: the packet's virtual destination IP.
using VirtualAddress = std::uint32_t;

/// The control-plane NAT table: the authoritative virtual->real mapping.
/// Mappings are deterministic functions of the virtual address (a
/// pre-provisioned table), so any trace works without a provisioning step.
class NatTable {
  public:
    /// Authoritative lookup (slow path). Never fails: the table is full.
    [[nodiscard]] std::uint32_t lookup(VirtualAddress va) const;
};

/// Placeholder marking an in-flight control-plane lookup (paper: "e.g.
/// 0x00000000 or 0xFFFFFFFF").
inline constexpr std::uint32_t kPlaceholder = 0xFFFFFFFFu;

struct LruTableConfig {
    TimeNs slow_path_delay = 100 * kMicrosecond;  ///< dT
    TimeNs base_latency = 1 * kMicrosecond;       ///< direct forwarding cost
    bool track_similarity = false;            ///< one partition only
    std::size_t similarity_max_accesses = 0;  ///< required when tracking
};

struct LruTableReport {
    std::uint64_t packets = 0;
    std::uint64_t fast_path = 0;        ///< real-address hits
    std::uint64_t placeholder_hits = 0; ///< slow path, fill already pending
    std::uint64_t misses = 0;           ///< slow path, fill scheduled
    double avg_added_latency_us = 0.0;  ///< mean latency beyond base
    double miss_rate = 0.0;             ///< (placeholder_hits + misses)/packets
    double similarity = 1.0;            ///< only if tracking enabled
};

/// An in-flight control-plane fill owned by one partition.
struct TargetPendingFill {
    TimeNs ready_at = 0;
    VirtualAddress va = 0;
    std::uint32_t real_address = 0;
};

/// A packet routed to the partition owning its virtual address.
struct LruTableRouted {
    std::uint32_t bucket = 0;
    VirtualAddress va = 0;
    TimeNs ts = 0;
};

/// Mergeable integer statistics of a LruTable replay (trivially copyable
/// for the raw-record checkpoint format).
struct LruTableStats {
    std::uint64_t ops = 0;  ///< packets applied
    std::uint64_t fast_path = 0;
    std::uint64_t placeholder_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t added_latency_ns = 0;  ///< integer sum, merge-exact

    void merge(const LruTableStats& o) noexcept {
        ops += o.ops;
        fast_path += o.fast_path;
        placeholder_hits += o.placeholder_hits;
        misses += o.misses;
        added_latency_ns += o.added_latency_ns;
    }

    friend bool operator==(const LruTableStats&,
                           const LruTableStats&) = default;
};

class LruTableTarget {
  public:
    using Op = PacketRecord;
    using Routed = LruTableRouted;
    using Stats = LruTableStats;
    using Policy = cache::ReplacementPolicy<VirtualAddress, std::uint32_t>;
    using PolicyFactory =
        std::function<std::unique_ptr<Policy>(std::size_t)>;

    LruTableTarget(std::size_t partitions, const PolicyFactory& make_policy,
                   LruTableConfig cfg = {})
        : cfg_(cfg) {
        if (partitions == 0) {
            throw std::invalid_argument("LruTableTarget: zero partitions");
        }
        if (cfg.track_similarity) {
            if (partitions != 1) {
                throw std::invalid_argument(
                    "LruTableTarget: similarity tracking needs the global "
                    "access order (one partition)");
            }
            if (cfg.similarity_max_accesses == 0) {
                throw std::invalid_argument(
                    "LruTableTarget: similarity tracking needs max accesses");
            }
            similarity_ =
                std::make_unique<cache::SimilarityTracker<VirtualAddress>>(
                    cfg.similarity_max_accesses);
        }
        parts_.reserve(partitions);
        for (std::size_t p = 0; p < partitions; ++p) {
            Partition part;
            part.policy = make_policy(p);
            if (!part.policy) {
                throw std::invalid_argument(
                    "LruTableTarget: factory returned null");
            }
            parts_.push_back(std::move(part));
        }
    }

    /// Attach live metrics (obs/metrics.hpp): counters
    /// lrutable_fast_path/placeholder_hits/misses/pending_fills and per-op
    /// latency histograms lrutable_fast_path_ns / lrutable_slow_path_ns
    /// around the policy access.  Null detaches (the default — zero
    /// overhead, no clock reads).  Call before handing the target to the
    /// engine; instruments are striped-atomic, so threaded shards may
    /// hammer them concurrently.
    void set_metrics(obs::Registry* reg) {
        m_ = {};
        if (reg == nullptr) return;
        m_.fast = reg->counter("lrutable_fast_path");
        m_.placeholder = reg->counter("lrutable_placeholder_hits");
        m_.miss = reg->counter("lrutable_misses");
        m_.pending = reg->counter("lrutable_pending_fills");
        m_.fast_ns = reg->histogram("lrutable_fast_path_ns");
        m_.slow_ns = reg->histogram("lrutable_slow_path_ns");
    }

    // -- routing ----------------------------------------------------------
    [[nodiscard]] std::size_t unit_count() const noexcept {
        return parts_.size();
    }

    [[nodiscard]] Routed route(const Op& op) const {
        const VirtualAddress va = op.flow.dst_ip;
        return Routed{
            static_cast<std::uint32_t>(hash::mix64(va) % parts_.size()), va,
            op.ts};
    }

    // -- apply ------------------------------------------------------------
    void apply_batch(std::span<const Routed> batch, Stats& s) {
        for (const auto& r : batch) apply_one(r, s);
    }

    void prefetch_batch(std::span<const Routed>) const noexcept {}

    // No optional planes (replay_target.hpp): the policies and fill queues
    // expose no raw storage planes to warm, scrub or corrupt.

    // -- snapshot plane ---------------------------------------------------
    [[nodiscard]] static constexpr std::uint32_t state_id() noexcept {
        return 0x4C546162u;  // "LTab"
    }
    [[nodiscard]] static constexpr std::uint64_t state_fingerprint() noexcept {
        return hash::mix64(0x4C52555441420000ull ^ sizeof(Stats));
    }

    /// One owned part: the policies and fill queues are serialized.
    void save_state(io::GatherImage& out) const {
        io::ByteWriter w = out.writer();
        w.u64(parts_.size());
        for (const auto& p : parts_) {
            cache::save_policy_record(*p.policy, w);
            w.u64(p.pending.size());
            for (const auto& f : p.pending) {
                w.u64(f.ready_at);
                w.u32(f.va);
                w.u32(f.real_address);
            }
        }
    }

    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        if (similarity_) return false;  // tracker is not in the image
        io::ByteReader r(in);
        std::uint64_t n = 0;
        if (!r.u64(n) || n != parts_.size()) return false;
        for (auto& p : parts_) {
            if (!cache::load_policy_record(*p.policy, r)) return false;
            std::uint64_t fills = 0;
            if (!r.u64(fills)) return false;
            p.pending.clear();
            for (std::uint64_t i = 0; i < fills; ++i) {
                TargetPendingFill f;
                if (!r.u64(f.ready_at) || !r.u32(f.va) ||
                    !r.u32(f.real_address)) {
                    return false;
                }
                p.pending.push_back(f);
            }
        }
        return r.done();
    }

    // -- fault hooks ------------------------------------------------------
    template <typename Faults>
    void inject_op_faults(const Faults& faults, std::uint64_t idx,
                          Op& op) const {
        faults.mutate_key(idx, op.flow);
    }

    // -- reporting --------------------------------------------------------
    /// Build the figure-9 report from engine-merged statistics.
    [[nodiscard]] LruTableReport report(const Stats& s) const {
        LruTableReport r;
        r.packets = s.ops;
        r.fast_path = s.fast_path;
        r.placeholder_hits = s.placeholder_hits;
        r.misses = s.misses;
        r.avg_added_latency_us =
            s.ops == 0 ? 0.0
                       : static_cast<double>(s.added_latency_ns) / 1000.0 /
                             static_cast<double>(s.ops);
        r.miss_rate =
            s.ops == 0
                ? 0.0
                : static_cast<double>(s.placeholder_hits + s.misses) /
                      static_cast<double>(s.ops);
        r.similarity = similarity_ ? similarity_->similarity() : 1.0;
        return r;
    }

  private:
    struct Partition {
        std::unique_ptr<Policy> policy;
        std::deque<TargetPendingFill> pending;
    };

    void apply_fills(Partition& p, TimeNs now) {
        while (!p.pending.empty() && p.pending.front().ready_at <= now) {
            const TargetPendingFill f = p.pending.front();
            p.pending.pop_front();
            // The control-plane answer re-enters the data plane as a normal
            // write-path update carrying the real address.
            const auto a = p.policy->fill(f.va, f.real_address, f.ready_at);
            if (similarity_) track(a, f.va);
        }
    }

    /// Similarity hook: every access that leaves va cached counts as a use.
    void track(const cache::Access<VirtualAddress, std::uint32_t>& a,
               VirtualAddress va) {
        if (a.evicted) similarity_->on_evict(a.evicted_key);
        if (a.inserted) similarity_->on_access(va);
    }

    void apply_one(const Routed& r, Stats& s) {
        Partition& p = parts_[r.bucket];
        apply_fills(p, r.ts);
        ++s.ops;
        // Per-op timing only when a registry is attached (one branch, no
        // clock reads otherwise); the observed value covers the policy
        // access — the path whose fast/slow split the paper's LRU
        // promotion protects.
        const bool observe = m_.fast_ns != nullptr;
        std::chrono::steady_clock::time_point t0;
        if (observe) t0 = std::chrono::steady_clock::now();
        const auto a = p.policy->access(r.va, kPlaceholder, r.ts);
        const bool fast = a.hit && a.value != kPlaceholder;
        if (observe) {
            const auto ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            (fast ? m_.fast_ns : m_.slow_ns)->record(ns);
        }
        if (similarity_) track(a, r.va);
        TimeNs added = 0;
        if (fast) {
            ++s.fast_path;
            if (m_.fast != nullptr) m_.fast->add(1);
        } else if (a.hit) {
            ++s.placeholder_hits;
            if (m_.placeholder != nullptr) m_.placeholder->add(1);
            added = cfg_.slow_path_delay;
        } else {
            ++s.misses;
            if (m_.miss != nullptr) m_.miss->add(1);
            added = cfg_.slow_path_delay;
            if (a.inserted) {
                p.pending.push_back(TargetPendingFill{
                    r.ts + cfg_.slow_path_delay, r.va, nat_.lookup(r.va)});
                if (m_.pending != nullptr) m_.pending->add(1);
            }
        }
        s.added_latency_ns += added;
    }

    struct ObsHooks {
        obs::Counter* fast = nullptr;
        obs::Counter* placeholder = nullptr;
        obs::Counter* miss = nullptr;
        obs::Counter* pending = nullptr;
        obs::Histogram* fast_ns = nullptr;
        obs::Histogram* slow_ns = nullptr;
    };

    LruTableConfig cfg_;
    NatTable nat_;
    std::vector<Partition> parts_;
    std::unique_ptr<cache::SimilarityTracker<VirtualAddress>> similarity_;
    ObsHooks m_{};
};

static_assert(replay::ReplayTarget<LruTableTarget>);

}  // namespace p4lru::systems::lrutable
