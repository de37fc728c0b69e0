// Fixed-size record storage addressed by 48-bit memory addresses — the
// "index" LruIndex caches is exactly such an address (the paper: "the 48-bit
// memory address", values of 64 bytes).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace p4lru::index {

/// 48-bit record address, stored in the low bits of a 64-bit integer.
/// Address 0 is reserved as "null" (records start at slot 1).
using RecordAddress = std::uint64_t;

constexpr RecordAddress kNullRecord = 0;
constexpr std::uint64_t kAddressMask = (std::uint64_t{1} << 48) - 1;

/// A slab of 64-byte records. Append-only allocation (database load phase),
/// random-access read/write afterwards.
class RecordStore {
  public:
    static constexpr std::size_t kRecordBytes = 64;
    using Record = std::array<std::uint8_t, kRecordBytes>;

    /// Allocate a record initialized from `payload` (truncated/zero-padded
    /// to 64 bytes). Returns its 48-bit address. Throws when the 48-bit
    /// address space is exhausted.
    RecordAddress allocate(std::span<const std::uint8_t> payload);

    /// Make room for `n` records in total (one allocation for a bulk load).
    void reserve(std::size_t n) { slabs_.reserve(n); }

    /// Read the record at `addr`. Throws std::out_of_range for invalid or
    /// null addresses.
    [[nodiscard]] const Record& read(RecordAddress addr) const;

    /// Overwrite the record at `addr`.
    void write(RecordAddress addr, std::span<const std::uint8_t> payload);

    [[nodiscard]] std::size_t count() const noexcept { return slabs_.size(); }
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slabs_.size() * kRecordBytes;
    }

    /// True if `addr` names an allocated record.
    [[nodiscard]] bool valid(RecordAddress addr) const noexcept;

  private:
    [[nodiscard]] std::size_t slot_of(RecordAddress addr) const;
    std::vector<Record> slabs_;
};

}  // namespace p4lru::index
