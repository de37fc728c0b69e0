// Little-endian byte-buffer serialization helpers.
//
// The snapshot planes of the system replay targets (systems/*/..._target.hpp)
// concatenate many heterogeneous parts — sketch counter rows, policy storage
// planes, analyzer tables, pending-fill queues — into one flat byte image.
// ByteWriter appends fields to a growing vector; ByteReader walks a span with
// a cursor and refuses to read past the end, so a truncated or reshaped image
// fails loudly (load_state -> false) instead of misinterpreting bytes.
//
// Scalars are written little-endian byte-by-byte (portable); raw `bytes`
// regions are memory images whose layout is guarded by the surrounding size
// fields, the same contract as the stats records of a checkpoint image
// (replay/checkpoint_io.hpp), which is framed with these helpers too.
//
// GatherImage is the image a snapshot plane fills: the same byte sequence
// held as parts — small owned runs written through a ByteWriter, plus spans
// borrowed from live memory such as a storage slab's planes — so a
// checkpoint can be CRC'd and written straight from where the state lives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace p4lru::io {

/// Little-endian scalar at `p` (the caller has bounds-checked the bytes).
[[nodiscard]] inline std::uint32_t load_u32(const std::byte* p) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
             << (8 * i);
    }
    return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::byte* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
             << (8 * i);
    }
    return v;
}

class ByteWriter {
  public:
    explicit ByteWriter(std::vector<std::byte>& out) noexcept : out_(&out) {}

    void u8(std::uint8_t v) { out_->push_back(static_cast<std::byte>(v)); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            out_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
        }
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
        }
    }

    /// Raw memory image of `n` bytes (trivially-copyable payloads only),
    /// appended in one pass (no zero-fill ahead of the copy).
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        out_->insert(out_->end(), b, b + n);
    }

    template <typename T>
    void pod(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(T));
    }

    [[nodiscard]] std::size_t size() const noexcept { return out_->size(); }

  private:
    std::vector<std::byte>* out_;
};

/// A byte image as an ordered list of parts, each either owned by the
/// image or borrowed from memory that must outlive every use of it.  The
/// image's bytes are its parts concatenated; nothing is copied until a
/// caller asks for flatten().  Moving an image keeps every part valid
/// (owned parts move with it), and copying deep-copies the owned parts
/// while sharing the borrowed ones.
class GatherImage {
  public:
    GatherImage() = default;

    /// The one-part image that owns `bytes`.
    explicit GatherImage(std::vector<std::byte> bytes) {
        own(std::move(bytes));
    }

    /// A writer appending to the image's trailing owned part, opened if the
    /// last part is borrowed.  Valid until the next append of any kind.
    [[nodiscard]] ByteWriter writer() {
        if (parts_.empty() || parts_.back().owned == kBorrowed) {
            parts_.push_back({{}, owned_.size()});
            owned_.emplace_back();
        }
        return ByteWriter(owned_[parts_.back().owned]);
    }

    /// Append `bytes` as a borrowed part (an empty span adds nothing).
    void borrow(std::span<const std::byte> bytes) {
        if (!bytes.empty()) parts_.push_back({bytes, kBorrowed});
    }

    /// Append every part of `other` as borrowed parts.
    void borrow(const GatherImage& other) {
        for (std::size_t i = 0; i < other.part_count(); ++i) {
            borrow(other.part(i));
        }
    }

    /// Append `bytes` as an owned part, taking over its buffer.
    void own(std::vector<std::byte> bytes) {
        if (bytes.empty()) return;
        parts_.push_back({{}, owned_.size()});
        owned_.push_back(std::move(bytes));
    }

    /// Append every part of `other`, taking over what it owns.
    void append(GatherImage&& other) {
        const std::size_t base = owned_.size();
        for (auto& buf : other.owned_) owned_.push_back(std::move(buf));
        for (const Part& p : other.parts_) {
            const bool borrowed = p.owned == kBorrowed;
            parts_.push_back(
                {p.borrowed, borrowed ? kBorrowed : base + p.owned});
        }
        other = GatherImage();
    }

    [[nodiscard]] std::size_t part_count() const noexcept {
        return parts_.size();
    }

    [[nodiscard]] std::span<const std::byte> part(std::size_t i) const {
        const Part& p = parts_[i];
        if (p.owned == kBorrowed) return p.borrowed;
        return owned_[p.owned];
    }

    /// Total bytes over all parts.
    [[nodiscard]] std::size_t size() const {
        std::size_t n = 0;
        for (std::size_t i = 0; i < part_count(); ++i) n += part(i).size();
        return n;
    }

    /// The first `n` bytes (all of them when `n` >= size()) as an image
    /// borrowing this one's parts.
    [[nodiscard]] GatherImage prefix(std::size_t n) const {
        GatherImage g;
        for (std::size_t i = 0; i < part_count() && n != 0; ++i) {
            const std::span<const std::byte> s = part(i);
            const std::size_t take = std::min(n, s.size());
            g.borrow(s.first(take));
            n -= take;
        }
        return g;
    }

    /// The image as one contiguous buffer (the one copy).
    [[nodiscard]] std::vector<std::byte> flatten() const {
        std::vector<std::byte> out;
        out.reserve(size());
        for (std::size_t i = 0; i < part_count(); ++i) {
            const std::span<const std::byte> s = part(i);
            out.insert(out.end(), s.begin(), s.end());
        }
        return out;
    }

  private:
    static constexpr std::size_t kBorrowed = ~std::size_t{0};

    struct Part {
        std::span<const std::byte> borrowed;  ///< when owned == kBorrowed
        std::size_t owned = kBorrowed;        ///< index into owned_
    };

    std::vector<Part> parts_;
    std::vector<std::vector<std::byte>> owned_;
};

class ByteReader {
  public:
    explicit ByteReader(std::span<const std::byte> in) noexcept : in_(in) {}

    [[nodiscard]] bool u8(std::uint8_t& v) {
        if (pos_ + 1 > in_.size()) return false;
        v = std::to_integer<std::uint8_t>(in_[pos_++]);
        return true;
    }

    [[nodiscard]] bool u32(std::uint32_t& v) {
        if (pos_ + 4 > in_.size()) return false;
        v = load_u32(in_.data() + pos_);
        pos_ += 4;
        return true;
    }

    [[nodiscard]] bool u64(std::uint64_t& v) {
        if (pos_ + 8 > in_.size()) return false;
        v = load_u64(in_.data() + pos_);
        pos_ += 8;
        return true;
    }

    [[nodiscard]] bool bytes(void* p, std::size_t n) {
        if (pos_ + n > in_.size()) return false;
        if (n != 0) std::memcpy(p, in_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    template <typename T>
    [[nodiscard]] bool pod(T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        return bytes(&v, sizeof(T));
    }

    /// A nested sub-image written as (u64 size, raw bytes); returns an empty
    /// span on underflow with `ok` cleared.
    [[nodiscard]] bool sub(std::span<const std::byte>& out) {
        std::uint64_t n = 0;
        if (!u64(n)) return false;
        if (pos_ + n > in_.size()) return false;
        out = in_.subspan(pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return true;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return in_.size() - pos_;
    }
    [[nodiscard]] bool done() const noexcept { return pos_ == in_.size(); }

  private:
    std::span<const std::byte> in_;
    std::size_t pos_ = 0;
};

}  // namespace p4lru::io
