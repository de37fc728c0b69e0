#include "p4lru/systems/lruindex/db_server.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "p4lru/common/hash.hpp"

namespace p4lru::systems::lruindex {
namespace {

/// Deterministic 64-byte payload for key k (verifiable by tests).
std::array<std::uint8_t, index::RecordStore::kRecordBytes> make_payload(
    DbKey k) {
    std::array<std::uint8_t, index::RecordStore::kRecordBytes> p{};
    for (std::size_t i = 0; i < p.size(); i += 8) {
        const std::uint64_t v = hash::mix64(k + i);
        std::memcpy(p.data() + i, &v, 8);
    }
    return p;
}

}  // namespace

DbServer::DbServer(std::uint64_t items, ServerCosts costs)
    : items_(items), costs_(costs) {
    if (items == 0) throw std::invalid_argument("DbServer: zero items");
    std::vector<DbKey> keys(items);
    std::vector<index::RecordAddress> addrs(items);
    store_.reserve(items);
    for (std::uint64_t k = 0; k < items; ++k) {
        const auto payload = make_payload(k);
        keys[k] = k;
        addrs[k] = store_.allocate(
            std::span<const std::uint8_t>(payload.data(), payload.size()));
    }
    // address_of() answers from arithmetic, not from the store or the
    // tree; hold the store to it.
    if (addrs.back() != address_of(items - 1)) {
        throw std::logic_error("DbServer: record layout breaks address_of");
    }
    tree_ = index::FlatBPlusTree<DbKey, index::RecordAddress>(
        std::move(keys), std::move(addrs));
}

ServeResult DbServer::serve(DbKey key, const CacheHeader& hdr) const {
    ServeResult r;
    if (hdr.hit() && store_.valid(hdr.cached_index)) {
        // Index bypass: the switch told us where the record lives.
        r.addr = hdr.cached_index;
        r.service_time = costs_.base + costs_.record_fetch;
        r.used_index = false;
        r.valid = true;
        r.record = &store_.read(r.addr);
        return r;
    }
    const auto fr = tree_.find(key);
    const TimeNs walk = costs_.per_index_hop * fr.node_hops;
    r.lock_time = static_cast<TimeNs>(costs_.index_lock_fraction *
                                      static_cast<double>(walk));
    r.service_time = costs_.base + walk - r.lock_time + costs_.record_fetch;
    r.used_index = true;
    if (fr.value) {
        r.addr = *fr.value;
        r.valid = true;
        r.record = &store_.read(r.addr);
    }
    return r;
}

}  // namespace p4lru::systems::lruindex
