// The switch-side cache of LruIndex (Section 3.2), behind a small interface
// so the benches can swap the paper's series-connected P4LRU3 arrays for the
// baseline policies (Figure 13) without touching the protocol:
//
//   * query packets consult the cache READ-ONLY and stamp cached_flag (the
//     hit level, 0 = miss) and cached_index (the 48-bit record address);
//   * reply packets perform the single mutation — promote on a prior hit,
//     cascade-insert on a prior miss.
#pragma once

#include <cstdint>
#include <memory>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/series_cache.hpp"
#include "p4lru/index/record_store.hpp"

namespace p4lru::systems::lruindex {

using DbKey = std::uint64_t;

/// The two extra header fields LruIndex adds to query/reply packets.
struct CacheHeader {
    std::uint32_t cached_flag = 0;  ///< hit level (1-based); 0 = not cached
    index::RecordAddress cached_index = index::kNullRecord;
    [[nodiscard]] bool hit() const noexcept { return cached_flag != 0; }
};

/// Switch-side cache interface: read-only query pass + mutating reply pass.
class IndexCache {
  public:
    virtual ~IndexCache() = default;

    /// Query pass (read-only). Fills the packet's cache header.
    [[nodiscard]] virtual CacheHeader query(DbKey key) const = 0;

    /// Reply pass: `hdr` is the header the query pass produced, `addr` the
    /// authoritative index carried back by the server.
    virtual void reply(DbKey key, index::RecordAddress addr,
                       const CacheHeader& hdr, TimeNs now) = 0;
};

/// The paper's "Naive Solution": no switch cache.  Every query misses and
/// the reply pass changes nothing.
class NaiveIndexCache final : public IndexCache {
  public:
    CacheHeader query(DbKey) const override { return {}; }
    void reply(DbKey, index::RecordAddress, const CacheHeader&,
               TimeNs) override {}
};

/// The paper's cache: `levels` series-connected arrays of P4LRU_N units
/// (N = 3 deployed; N = 1, 2 for the connection-level ablation of Fig. 16).
template <std::size_t N>
class BasicSeriesIndexCache final : public IndexCache {
  public:
    BasicSeriesIndexCache(std::size_t levels, std::size_t units_per_level,
                          std::uint32_t seed)
        : series_(levels, units_per_level, seed) {}

    CacheHeader query(DbKey key) const override {
        CacheHeader hdr;
        const auto lookup = series_.query(key);
        if (lookup.hit()) {
            hdr.cached_flag = static_cast<std::uint32_t>(lookup.level);
            hdr.cached_index = lookup.value;
        }
        return hdr;
    }

    void reply(DbKey key, index::RecordAddress addr,
               const CacheHeader& hdr, TimeNs /*now*/) override {
        if (hdr.hit()) {
            series_.reply_promote(key, addr, hdr.cached_flag);
        } else {
            series_.reply_insert(key, addr);
        }
    }

    [[nodiscard]] const auto& series() const noexcept { return series_; }
    [[nodiscard]] auto& series() noexcept { return series_; }

  private:
    core::SeriesCache<core::P4lru<DbKey, index::RecordAddress, N>, DbKey,
                      index::RecordAddress>
        series_;
};

/// The deployed configuration (P4LRU3 units).
using SeriesIndexCache = BasicSeriesIndexCache<3>;
using SeriesIndexCache2 = BasicSeriesIndexCache<2>;
using SeriesIndexCache1 = BasicSeriesIndexCache<1>;

/// Adapter running any ReplacementPolicy under the query/reply protocol
/// (used by the Figure-13 comparative bench).
class PolicyIndexCache final : public IndexCache {
  public:
    explicit PolicyIndexCache(
        std::unique_ptr<cache::ReplacementPolicy<DbKey,
                                                 index::RecordAddress>>
            policy)
        : policy_(std::move(policy)) {}

    CacheHeader query(DbKey key) const override {
        CacheHeader hdr;
        if (const auto v = policy_->peek(key)) {
            hdr.cached_flag = 1;
            hdr.cached_index = *v;
        }
        return hdr;
    }

    void reply(DbKey key, index::RecordAddress addr,
               const CacheHeader& /*hdr*/, TimeNs now) override {
        policy_->access(key, addr, now);
    }

  private:
    std::unique_ptr<cache::ReplacementPolicy<DbKey, index::RecordAddress>>
        policy_;
};

}  // namespace p4lru::systems::lruindex
