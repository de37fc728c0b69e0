// LruIndex as a ReplayTarget (DESIGN.md §11): the query-acceleration system
// partitioned by DB key so the sharded replay engine can drive it in every
// mode with bit-identical reports.
//
// The per-query protocol (§3.2) lives here once, as QueryStep: the query
// pass (read-only cache consult), the server attempts against an optional
// flaky service, and serve-and-check.  The reply pass is the cache's own
// reply().  LruIndexTarget runs the phases back to back on one partition;
// the closed-loop driver (driver.hpp) runs the same phases at their event
// times and adds only time — net delay, the index latch and latency.
//
// Partitioning: op -> partition mix64(key) % G; each partition owns an
// independent series-connected P4LRU3 cache over the shared read-only
// DbServer.  A flaky server is consulted as fails(op.seq, attempt) with the
// sequence number baked into the op at generation time, so the refusal
// pattern is a property of the op stream, not of scheduling — identical in
// every engine mode.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/unit_storage.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/trace/ycsb.hpp"

namespace p4lru::systems::lruindex {

/// One YCSB query with its sequence number baked in at generation time
/// (FlakyService keys its refusal pattern on it).
struct LruIndexOp {
    std::uint64_t seq = 0;
    DbKey key = 0;
};

/// Generate `count` YCSB queries with sequence numbers 0..count-1.
[[nodiscard]] inline std::vector<LruIndexOp> make_index_ops(
    const trace::YcsbConfig& cfg, std::size_t count) {
    trace::YcsbWorkload workload(cfg);
    std::vector<LruIndexOp> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        ops.push_back(LruIndexOp{i, workload.next().key});
    }
    return ops;
}

struct LruIndexRouted {
    std::uint32_t bucket = 0;
    std::uint64_t seq = 0;
    DbKey key = 0;
};

/// Mergeable integer statistics of a LruIndex replay (trivially copyable
/// for the raw-record checkpoint format).
struct LruIndexStats {
    std::uint64_t ops = 0;  ///< queries applied
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t retries = 0;
    std::uint64_t failed_queries = 0;
    std::uint64_t wrong_replies = 0;

    void merge(const LruIndexStats& o) noexcept {
        ops += o.ops;
        hits += o.hits;
        misses += o.misses;
        retries += o.retries;
        failed_queries += o.failed_queries;
        wrong_replies += o.wrong_replies;
    }

    friend bool operator==(const LruIndexStats&,
                           const LruIndexStats&) = default;
};

/// The correctness-protocol report derived from merged statistics.
struct LruIndexReport {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t misses = 0;
    double miss_rate = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t failed_queries = 0;
    std::uint64_t wrong_replies = 0;  ///< must stay 0
};

/// The one stats -> report conversion (LruIndexTarget::report, run_driver).
[[nodiscard]] inline LruIndexReport index_report(const LruIndexStats& s) {
    const double miss_rate = s.ops == 0 ? 0.0
                                        : static_cast<double>(s.misses) /
                                              static_cast<double>(s.ops);
    return {s.ops, s.hits, s.misses, miss_rate,
            s.retries, s.failed_queries, s.wrong_replies};
}

/// Retry policy against a refusing server: attempt k (0-based) that fails is
/// re-sent after min(backoff << k, max_backoff).  max_attempts counts total
/// tries, so 4 means one original send plus up to three retries.
struct RetryConfig {
    std::uint32_t max_attempts = 4;
    TimeNs backoff = 20 * kMicrosecond;  ///< doubles per attempt...
    /// ...up to this ceiling.  The doubling must saturate: an uncapped
    /// `backoff << k` is UB once k reaches the width of TimeNs and wraps to
    /// garbage delays long before that.  0 means "no explicit ceiling",
    /// which still saturates at the largest representable doubling.
    TimeNs max_backoff = 10 * kMillisecond;
};

/// The delay before re-sending attempt `attempt` (0-based, the attempt that
/// just failed): backoff << attempt, saturating at cfg.max_backoff (or at
/// the largest representable doubling when no ceiling is set).  Never
/// wraps or shifts past the type width for any attempt/backoff combination.
[[nodiscard]] constexpr TimeNs retry_backoff(const RetryConfig& cfg,
                                             std::uint32_t attempt) noexcept {
    const TimeNs base = cfg.backoff;
    if (base == 0) return 0;
    const TimeNs cap = cfg.max_backoff != 0
                           ? cfg.max_backoff
                           : std::numeric_limits<TimeNs>::max();
    if (base >= cap) return cap;
    // base << attempt would exceed cap (or the type) iff base > cap >> attempt;
    // comparing in the shifted-down domain never wraps, and the attempt
    // guard keeps both shifts below the width of TimeNs.
    if (attempt >= 63 || base > (cap >> attempt)) return cap;
    return base << attempt;
}

/// What server attempt k of a query comes to: serve it, re-send it as
/// attempt k + 1, or give up (the query completes as failed).
enum class Attempt : std::uint8_t { kServe, kRetry, kGiveUp };

/// The per-query protocol of LruIndex in three counted phases, each writing
/// into the caller's LruIndexStats:
///   query()   — ++ops plus a hit or a miss;
///   attempt() — server attempt k: serve, retry or give up;
///   serve()   — serve the query; a reply other than address_of(key) is a
///               wrong reply.
/// The reply pass is the cache's own reply(key, addr, hdr, now), skipped on
/// give-up.  query() is templated on the cache so a final cache type
/// (SeriesIndexCache) is called without a virtual dispatch.
class QueryStep {
  public:
    QueryStep(const DbServer& server, const fault::FlakyService* flaky,
              const RetryConfig& retry)
        : server_(&server), flaky_(flaky), retry_(retry) {
        if (flaky != nullptr && retry.max_attempts == 0) {
            throw std::invalid_argument("LruIndex: zero retry attempts");
        }
    }

    /// Attach live metrics (obs/metrics.hpp): counters
    /// lruindex_hits/misses/retries/failed_queries.  Null detaches (the
    /// default, zero overhead).
    void set_metrics(obs::Registry* reg) {
        m_ = {};
        if (reg == nullptr) return;
        m_.hits = reg->counter("lruindex_hits");
        m_.misses = reg->counter("lruindex_misses");
        m_.retries = reg->counter("lruindex_retries");
        m_.failed = reg->counter("lruindex_failed_queries");
    }

    template <typename Cache>
    [[nodiscard]] CacheHeader query(const Cache& cache, DbKey key,
                                    LruIndexStats& s) const {
        ++s.ops;
        const CacheHeader hdr = cache.query(key);
        if (hdr.hit()) {
            ++s.hits;
            if (m_.hits != nullptr) m_.hits->add(1);
        } else {
            ++s.misses;
            if (m_.misses != nullptr) m_.misses->add(1);
        }
        return hdr;
    }

    /// Server attempt `k` (0-based) of query `seq`.
    [[nodiscard]] Attempt attempt(std::uint64_t seq, std::uint32_t k,
                                  LruIndexStats& s) const {
        if (flaky_ == nullptr || !flaky_->fails(seq, k)) {
            return Attempt::kServe;
        }
        if (k + 1 < retry_.max_attempts) {
            ++s.retries;
            if (m_.retries != nullptr) m_.retries->add(1);
            return Attempt::kRetry;
        }
        ++s.failed_queries;
        if (m_.failed != nullptr) m_.failed->add(1);
        return Attempt::kGiveUp;
    }

    [[nodiscard]] ServeResult serve(DbKey key, const CacheHeader& hdr,
                                    LruIndexStats& s) const {
        const ServeResult res = server_->serve(key, hdr);
        if (!res.valid || res.addr != server_->address_of(key)) {
            ++s.wrong_replies;
        }
        return res;
    }

  private:
    struct ObsHooks {
        obs::Counter* hits = nullptr;
        obs::Counter* misses = nullptr;
        obs::Counter* retries = nullptr;
        obs::Counter* failed = nullptr;
    };

    const DbServer* server_;
    const fault::FlakyService* flaky_;
    RetryConfig retry_;
    ObsHooks m_{};
};

class LruIndexTarget {
  public:
    using Op = LruIndexOp;
    using Routed = LruIndexRouted;
    using Stats = LruIndexStats;

    struct Config {
        std::size_t partitions = 8;
        std::size_t levels = 3;           ///< series depth per partition
        std::size_t units_per_level = 64; ///< P4LRU3 units per level
        std::uint32_t seed = 0xC0FFEE;
        const fault::FlakyService* flaky = nullptr;
        RetryConfig retry{};  ///< consulted only when flaky != nullptr
    };

    LruIndexTarget(const DbServer& server, const Config& cfg)
        : step_(server, cfg.flaky, cfg.retry) {
        if (cfg.partitions == 0) {
            throw std::invalid_argument("LruIndexTarget: zero partitions");
        }
        parts_.reserve(cfg.partitions);
        for (std::size_t p = 0; p < cfg.partitions; ++p) {
            parts_.emplace_back(
                cfg.levels, cfg.units_per_level,
                cfg.seed + static_cast<std::uint32_t>(p) * 0x5bd1u);
        }
    }

    /// Attach live metrics: QueryStep::set_metrics.
    void set_metrics(obs::Registry* reg) { step_.set_metrics(reg); }

    // -- routing ----------------------------------------------------------
    [[nodiscard]] std::size_t unit_count() const noexcept {
        return parts_.size();
    }

    [[nodiscard]] Routed route(const Op& op) const {
        return Routed{
            static_cast<std::uint32_t>(hash::mix64(op.key) % parts_.size()),
            op.seq, op.key};
    }

    // -- apply ------------------------------------------------------------
    void apply_batch(std::span<const Routed> batch, Stats& s) {
        for (const auto& r : batch) apply_one(r, s);
    }

    void prefetch_batch(std::span<const Routed>) const noexcept {}

    // -- integrity plane (optional; the series levels' state words) -------
    [[nodiscard]] core::ScrubReport scrub(std::size_t lo, std::size_t hi) {
        core::ScrubReport rep;
        for (std::size_t p = lo; p < hi && p < parts_.size(); ++p) {
            auto& series = parts_[p].series();
            for (std::size_t i = 0; i < series.level_count(); ++i) {
                rep.merge(series.level(i).scrub_all());
            }
        }
        return rep;
    }
    [[nodiscard]] core::ScrubReport scrub_all() {
        return scrub(0, parts_.size());
    }

    // -- snapshot plane ---------------------------------------------------
    [[nodiscard]] static constexpr std::uint32_t state_id() noexcept {
        return 0x4C496478u;  // "LIdx"
    }
    [[nodiscard]] static constexpr std::uint64_t state_fingerprint() noexcept {
        return hash::mix64(0x4C5255494458'0000ull ^ sizeof(Stats));
    }

    /// Each level's planes are lent between their length fields: the
    /// image owns only the framing.
    void save_state(io::GatherImage& out) const {
        out.writer().u64(parts_.size());
        for (const auto& p : parts_) {
            const auto& series = p.series();
            out.writer().u64(series.level_count());
            for (std::size_t i = 0; i < series.level_count(); ++i) {
                const auto planes = series.level(i).storage().planes();
                std::uint64_t bytes = 0;
                for (const auto plane : planes) bytes += plane.size();
                out.writer().u64(bytes);
                for (const auto plane : planes) out.borrow(plane);
            }
        }
    }

    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        io::ByteReader r(in);
        std::uint64_t n = 0;
        if (!r.u64(n) || n != parts_.size()) return false;
        for (auto& p : parts_) {
            auto& series = p.series();
            std::uint64_t levels = 0;
            if (!r.u64(levels) || levels != series.level_count()) {
                return false;
            }
            for (std::size_t i = 0; i < series.level_count(); ++i) {
                std::span<const std::byte> planes;
                if (!r.sub(planes)) return false;
                if (!series.level(i).storage().load_planes(planes)) {
                    return false;
                }
            }
        }
        return r.done();
    }

    // -- fault hooks ------------------------------------------------------
    // The flaky-server refusal pattern is content-addressed through op.seq
    // (always active, every mode); the byte-corruption hooks additionally
    // let single-owner paths rot a query's key field.
    template <typename Faults>
    void inject_op_faults(const Faults& faults, std::uint64_t idx,
                          Op& op) const {
        faults.mutate_key(idx, op.key);
    }

    // -- reporting --------------------------------------------------------
    [[nodiscard]] LruIndexReport report(const Stats& s) const {
        return index_report(s);
    }

    [[nodiscard]] const SeriesIndexCache& partition(std::size_t p) const {
        return parts_.at(p);
    }

  private:
    void apply_one(const Routed& r, Stats& s) {
        SeriesIndexCache& cache = parts_[r.bucket];
        const CacheHeader hdr = step_.query(cache, r.key, s);
        for (std::uint32_t k = 0;; ++k) {
            const Attempt a = step_.attempt(r.seq, k, s);
            if (a == Attempt::kGiveUp) return;  // the reply pass never runs
            if (a == Attempt::kServe) break;
        }
        const ServeResult res = step_.serve(r.key, hdr, s);
        cache.reply(r.key, res.addr, hdr, 0);
    }

    QueryStep step_;
    std::vector<SeriesIndexCache> parts_;
};

static_assert(replay::ReplayTarget<LruIndexTarget>);
static_assert(replay::ScrubTarget<LruIndexTarget>);

}  // namespace p4lru::systems::lruindex
