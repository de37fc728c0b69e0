// The UnitStorage concept: how a parallel connection stores its array of
// small P4LRU units.
//
// ParallelCache is a thin policy layer (hashing, bucket routing); the actual
// memory layout lives behind this concept.  Two interchangeable models:
//
//   * AosStorage<Unit>     - array-of-structs: one self-contained unit object
//                            per bucket (the original layout; keeps the
//                            behavioural P4lru and the encoded units as the
//                            bit-exact reference model);
//   * SoaSlab<K, V, N>     - struct-of-arrays slab (soa_slab.hpp): all units'
//                            keys in one contiguous key plane, values in a
//                            value plane, packed state codes in a byte plane,
//                            with a branch-free compare-mask key scan.
//
// Every operation is addressed by bucket index — the caller (ParallelCache)
// hashes exactly once and passes the bucket through.  Both storages are
// fully initialized by their constructor, like the switch's register arrays
// (§2.3), which are allocated once with the program.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/core/p4lru.hpp"

namespace p4lru::core {

/// Outcome of an integrity scrub pass over a unit range: how many units were
/// scanned, how many held a state word that is not a legal LruState encoding,
/// and how many of those were repaired (for the current storages every
/// detected corruption is repairable, so corrupt == repaired).
struct ScrubReport {
    std::uint64_t scanned = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t repaired = 0;

    friend bool operator==(const ScrubReport&, const ScrubReport&) = default;

    void merge(const ScrubReport& o) noexcept {
        scanned += o.scanned;
        corrupt += o.corrupt;
        repaired += o.repaired;
    }
};

/// Stable numeric ids for the storage layouts (checkpoint images carry one
/// so a snapshot can never be restored into the wrong layout — two layouts
/// of coincidentally equal plane-byte size would otherwise silently
/// reinterpret each other's planes).
inline constexpr std::uint32_t kAosLayoutId = 1;
inline constexpr std::uint32_t kSoaLayoutId = 2;

/// FNV-style mix of the quantities that define a storage's plane geometry
/// (element sizes, lane counts, stride).  Two storages may exchange plane
/// images only when both the layout id and this fingerprint agree; a bare
/// byte-size compare is not enough.
[[nodiscard]] constexpr std::uint64_t plane_fingerprint_mix(
    std::initializer_list<std::uint64_t> dims) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t d : dims) {
        h ^= d;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

/// Storage model for a hash-indexed array of N-entry LRU units.  All
/// mutating/readonly entry points take the owning bucket index.
template <typename S>
concept UnitStorage = requires(S s, const S& cs, std::size_t b,
                               const typename S::key_type& k,
                               const typename S::value_type& v) {
    typename S::key_type;
    typename S::value_type;
    requires std::same_as<
        typename S::Result,
        UpdateResult<typename S::key_type, typename S::value_type>>;
    { S::unit_capacity() } -> std::convertible_to<std::size_t>;
    { S::layout_name() } -> std::convertible_to<const char*>;
    { S::layout_id() } -> std::convertible_to<std::uint32_t>;
    { S::plane_fingerprint() } -> std::convertible_to<std::uint64_t>;
    { cs.unit_count() } -> std::convertible_to<std::size_t>;
    { s.update_at(b, k, v) } -> std::same_as<typename S::Result>;
    { s.update_at(b, k, v, ReplaceMerge{}) } -> std::same_as<typename S::Result>;
    { s.touch_at(b, k, v) } -> std::same_as<bool>;
    {
        cs.find_at(b, k)
    } -> std::same_as<std::optional<typename S::value_type>>;
    {
        s.insert_lru_at(b, k, v)
    } -> std::same_as<std::optional<
        std::pair<typename S::key_type, typename S::value_type>>>;
    { cs.size_at(b) } -> std::convertible_to<std::size_t>;
    { cs.prefetch(b) };
    { cs.unit(b) };
};

/// Array-of-structs storage: one `Unit` object (keys + values + state,
/// interleaved) per bucket.  This is the original ParallelCache layout, kept
/// as the bit-exact reference model the SoA slab is tested against, and the
/// only layout for unit types the slab cannot hold (encoded units with their
/// own state machines, non-trivially-copyable keys, N > 4).
template <typename Unit, typename Key, typename Value>
class AosStorage {
  public:
    using unit_type = Unit;
    using key_type = Key;
    using value_type = Value;
    using Result = UpdateResult<Key, Value>;

    explicit AosStorage(std::size_t units) : units_(units) {}

    [[nodiscard]] static constexpr std::size_t unit_capacity() noexcept {
        return Unit::capacity();
    }
    [[nodiscard]] static constexpr const char* layout_name() noexcept {
        return "aos";
    }
    [[nodiscard]] static constexpr std::uint32_t layout_id() noexcept {
        return kAosLayoutId;
    }
    /// Plane geometry: one interleaved Unit object per bucket, so the unit's
    /// size/alignment and entry capacity pin the image layout.
    [[nodiscard]] static constexpr std::uint64_t plane_fingerprint() noexcept {
        return plane_fingerprint_mix({kAosLayoutId, sizeof(Unit),
                                      alignof(Unit), Unit::capacity(),
                                      sizeof(Key), sizeof(Value)});
    }

    [[nodiscard]] std::size_t unit_count() const noexcept {
        return units_.size();
    }

    Result update_at(std::size_t b, const Key& k, const Value& v) {
        return units_[b].update(k, v);
    }
    template <typename MergeFn>
    Result update_at(std::size_t b, const Key& k, const Value& v,
                     MergeFn&& merge) {
        return units_[b].update(k, v, std::forward<MergeFn>(merge));
    }

    [[nodiscard]] std::optional<Value> find_at(std::size_t b,
                                               const Key& k) const {
        return units_[b].find(k);
    }

    bool touch_at(std::size_t b, const Key& k, const Value& v) {
        return units_[b].touch(k, v);
    }

    std::optional<std::pair<Key, Value>> insert_lru_at(std::size_t b,
                                                       const Key& k,
                                                       const Value& v) {
        return units_[b].insert_lru(k, v);
    }

    [[nodiscard]] std::size_t size_at(std::size_t b) const {
        return units_[b].size();
    }

    /// Hint the unit object into cache (write intent).
    void prefetch(std::size_t b) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
        const char* p = reinterpret_cast<const char*>(&units_[b]);
        __builtin_prefetch(p, 1, 2);
        if constexpr (sizeof(Unit) > 64) {
            __builtin_prefetch(p + 64, 1, 2);
        }
#else
        (void)b;
#endif
    }

    // -- integrity + checkpoint ------------------------------------------

    /// AoS units hold their LruState as a typed value that only its own
    /// transitions mutate — there is no raw plane an external bit-flip can
    /// reach through this interface — so a scrub pass finds nothing by
    /// construction.  Kept for storage-generic callers.
    ScrubReport scrub_range(std::size_t lo, std::size_t hi) noexcept {
        ScrubReport r;
        r.scanned = hi - lo;
        return r;
    }

    /// The whole unit array as one raw byte plane over the live storage
    /// (checkpointing), valid until the storage is next mutated; load_planes
    /// restores it.  Only available when the unit is trivially copyable
    /// (true for P4lru over trivially copyable keys/values).
    [[nodiscard]] std::array<std::span<const std::byte>, 1> planes() const
        requires std::is_trivially_copyable_v<Unit>
    {
        return {std::as_bytes(std::span<const Unit>(units_))};
    }
    [[nodiscard]] bool load_planes(std::span<const std::byte> in)
        requires std::is_trivially_copyable_v<Unit>
    {
        if (in.size() != units_.size() * sizeof(Unit)) return false;
        if (!units_.empty()) {
            std::memcpy(units_.data(), in.data(), in.size());
        }
        return true;
    }

    /// Per-unit inspection handle (tests, for_each-style enumeration).
    [[nodiscard]] const Unit& unit(std::size_t b) const {
        return units_.at(b);
    }

  private:
    std::vector<Unit> units_;
};

static_assert(
    UnitStorage<AosStorage<P4lru<unsigned, unsigned, 3>, unsigned, unsigned>>);

/// Storage selection trait: maps a unit type onto its default storage.  The
/// primary template keeps everything on the AoS reference layout; the SoA
/// slab registers itself (soa_slab.hpp) for behavioural P4lru units it can
/// hold, which makes the slab the default for every ParallelCache consumer.
template <typename Unit, typename Key, typename Value>
struct default_storage {
    using type = AosStorage<Unit, Key, Value>;
};

template <typename Unit, typename Key, typename Value>
using default_storage_t = typename default_storage<Unit, Key, Value>::type;

}  // namespace p4lru::core
