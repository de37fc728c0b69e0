// The database server LruIndex accelerates: a read-only B+ tree index over
// 64-byte records in a RecordStore, plus the service-cost model that turns
// index bypasses into time savings (substituting for the paper's DPDK
// server; see DESIGN.md).
#pragma once

#include <cstdint>

#include "p4lru/common/types.hpp"
#include "p4lru/index/flat_bptree.hpp"
#include "p4lru/index/record_store.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

namespace p4lru::systems::lruindex {

struct ServerCosts {
    TimeNs base = 1 * kMicrosecond;          ///< request handling overhead
    TimeNs per_index_hop = 1500;             ///< B+ tree node traversal
    TimeNs record_fetch = 2 * kMicrosecond;  ///< read the 64-byte record
    /// Serialized fraction of the index traversal (latch/lock): makes thread
    /// scaling sublinear and index bypasses more valuable under load.
    double index_lock_fraction = 0.25;
};

/// Result of serving one query.
struct ServeResult {
    index::RecordAddress addr = index::kNullRecord;
    TimeNs service_time = 0;     ///< excluding lock wait
    TimeNs lock_time = 0;        ///< serialized portion (0 on index bypass)
    bool used_index = false;     ///< walked the B+ tree
    bool valid = false;          ///< key existed
    /// The served record in the server's store (null when !valid); the
    /// server hands it out in place rather than copying it.
    const index::RecordStore::Record* record = nullptr;
};

class DbServer {
  public:
    /// Load `items` records keyed 0..items-1.
    DbServer(std::uint64_t items, ServerCosts costs);

    /// Serve a query that carries the switch's cache header: with a valid
    /// cached index the server fetches the record directly; otherwise it
    /// walks the B+ tree. Returns the authoritative address either way (the
    /// reply packet carries it back for the cache update).
    [[nodiscard]] ServeResult serve(DbKey key, const CacheHeader& hdr) const;

    [[nodiscard]] std::uint64_t items() const noexcept { return items_; }
    [[nodiscard]] std::size_t index_height() const { return tree_.height(); }
    [[nodiscard]] const ServerCosts& costs() const noexcept { return costs_; }

    /// Ground-truth address, independent of the index: the constructor
    /// allocates keys 0..items-1 in order from record slot 1, so key k
    /// lives in slot k + 1.
    [[nodiscard]] index::RecordAddress address_of(DbKey key) const noexcept {
        return key < items_ ? (key + 1) * index::RecordStore::kRecordBytes
                            : index::kNullRecord;
    }

  private:
    std::uint64_t items_;
    ServerCosts costs_;
    index::RecordStore store_;
    index::FlatBPlusTree<DbKey, index::RecordAddress> tree_;
};

}  // namespace p4lru::systems::lruindex
