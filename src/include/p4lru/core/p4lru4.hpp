// P4LRU4 — the paper's Section 2.3.3 feasibility claim, made concrete.
//
// The 24 cache states of a 4-entry P4LRU form S4. With V4 (the Klein
// four-group {e, (12)(34), (13)(24), (14)(23)}) normal in S4 and S4/V4 ≅ S3,
// every state decomposes uniquely as
//
//      S = sigma x v,   sigma in the S3 subgroup fixing position 4,
//                       v in V4,
//
// (composition convention (p x q)(j) = q(p(j)), as in the paper). The Step-2
// transition S <- R_i^-1 x S then splits into two *register-sized* updates:
//
//      sigma' = sigma_r(i) x sigma           (left-mult by a constant:
//                                             a 6-entry map per operation)
//      v'     = W_i(sigma) XOR v             (W_i a 6-entry lookup; V4 is
//                                             C2 x C2, so its product is
//                                             XOR on 2-bit codes)
//
// and the value slot S(1) = v(sigma(1)) needs one 16-entry table — exactly
// the "tiny table" a Tofino stateful ALU can reach. Two registers, each
// written once per packet; the v-update reads only the OLD sigma, which the
// sigma register action can export. Hence P4LRU4 deploys on the same
// pipeline contract as P4LRU3, with "more nuanced logic" as the paper
// predicted.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/permutation.hpp"

namespace p4lru::core::codec4 {

/// The transition tables of the decomposed S4 DFA. sigma codes reuse the
/// Table-1 encoding of the S3 part (0..5); v codes are 0..3 with XOR as the
/// group product.
struct Lru4Tables {
    /// sigma' = sigma_next[op][sigma], op in 0..3 (match position 1..4).
    std::array<std::array<std::uint8_t, 6>, 4> sigma_next{};
    /// v' = w[op][sigma_old] ^ v.
    std::array<std::array<std::uint8_t, 6>, 4> w{};
    /// S(1) = slot1[sigma * 4 + v], 1-based (the 16-entry tiny table).
    std::array<std::uint8_t, 24> slot1{};
    /// S(4) (least-recent slot), for insert_lru.
    std::array<std::uint8_t, 24> slot4{};
};

/// Build (and cache) the tables from the permutation algebra.
[[nodiscard]] const Lru4Tables& tables();

/// Compose a full S4 permutation from (sigma, v) codes.
[[nodiscard]] Permutation compose_state(std::uint8_t sigma, std::uint8_t v);

/// Decompose an S4 permutation into (sigma, v) codes. Throws if size != 4.
[[nodiscard]] std::pair<std::uint8_t, std::uint8_t> decompose_state(
    const Permutation& p);

/// Exhaustively verify the decomposition and every transition against
/// Algorithm 1 (24 states x 4 operations). Used by tests.
[[nodiscard]] bool verify_lru4_codec();

}  // namespace p4lru::core::codec4

namespace p4lru::core {

/// A 4-entry P4LRU unit driven by the decomposed two-register DFA.
/// Key{} is the empty-slot sentinel, as in the other encoded units.
template <typename Key, typename Value, typename Merge = ReplaceMerge>
    requires std::equality_comparable<Key>
class P4lru4Encoded {
  public:
    using Result = UpdateResult<Key, Value>;

    Result update(const Key& k, const Value& v) {
        return update(k, v, merge_);
    }

    template <typename MergeFn>
    Result update(const Key& k, const Value& v, MergeFn&& merge) {
        const auto& t = codec4::tables();
        Result r;

        // Key bubble, one register per stage.
        std::uint8_t op;  // 0-based match position; miss -> 3
        if (key_[0] == k) {
            op = 0;
            r.hit = true;
        } else if (key_[1] == k) {
            key_[1] = key_[0];
            key_[0] = k;
            op = 1;
            r.hit = true;
        } else if (key_[2] == k) {
            key_[2] = key_[1];
            key_[1] = key_[0];
            key_[0] = k;
            op = 2;
            r.hit = true;
        } else if (key_[3] == k) {
            shift_all(k);
            op = 3;
            r.hit = true;
        } else {
            const Key victim = key_[3];
            shift_all(k);
            op = 3;
            if (victim != Key{}) {
                r.evicted = true;
                r.evicted_key = victim;
            }
        }
        r.hit_pos = op + 1u;

        // Two-register DFA: the v-update consumes the OLD sigma (exported
        // by the sigma register action), then sigma advances.
        const std::uint8_t sigma_old = sigma_;
        sigma_ = t.sigma_next[op][sigma_old];
        v4_ = t.w[op][sigma_old] ^ v4_;

        // Single value access through the 16-entry slot table.
        const std::size_t slot = t.slot1[sigma_ * 4u + v4_];
        if (r.hit) {
            val_[slot - 1] = merge(val_[slot - 1], v);
        } else {
            if (r.evicted) r.evicted_value = val_[slot - 1];
            val_[slot - 1] = v;
        }
        return r;
    }

    [[nodiscard]] std::optional<Value> find(const Key& k) const {
        if (k == Key{}) return std::nullopt;
        const auto state = codec4::compose_state(sigma_, v4_);
        for (std::size_t i = 0; i < 4; ++i) {
            if (key_[i] == k) return val_[state(i + 1) - 1];
        }
        return std::nullopt;
    }

    [[nodiscard]] bool contains(const Key& k) const {
        return find(k).has_value();
    }

    bool touch(const Key& k, const Value& v) {
        if (!contains(k)) return false;
        update(k, v);
        return true;
    }

    /// Series-connection downstream insert (replace the least-recent slot,
    /// state untouched).
    std::optional<std::pair<Key, Value>> insert_lru(const Key& k,
                                                    const Value& v) {
        const auto state = codec4::compose_state(sigma_, v4_);
        for (std::size_t i = 0; i < 4; ++i) {
            if (key_[i] == k && k != Key{}) {
                val_[state(i + 1) - 1] = v;
                return std::nullopt;
            }
        }
        const auto& t = codec4::tables();
        const std::size_t slot = t.slot4[sigma_ * 4u + v4_];
        std::optional<std::pair<Key, Value>> displaced;
        if (key_[3] != Key{}) {
            displaced = std::make_pair(key_[3], val_[slot - 1]);
        }
        key_[3] = k;
        val_[slot - 1] = v;
        return displaced;
    }

    [[nodiscard]] std::uint8_t sigma_code() const noexcept { return sigma_; }
    [[nodiscard]] std::uint8_t v4_code() const noexcept { return v4_; }
    [[nodiscard]] static constexpr std::size_t capacity() noexcept {
        return 4;
    }

    [[nodiscard]] std::size_t size() const noexcept {
        std::size_t n = 0;
        for (const auto& key : key_) n += key != Key{} ? 1 : 0;
        return n;
    }

    /// Key at 1-based LRU position (1 = most recent).  update() keeps the
    /// occupied slots a prefix, so positions 1..size() are the residents.
    [[nodiscard]] const Key& key_at(std::size_t i) const { return key_[i - 1]; }

    /// Value owned by the key at 1-based position i.
    [[nodiscard]] const Value& value_at(std::size_t i) const {
        return val_[codec4::compose_state(sigma_, v4_)(i) - 1];
    }

  private:
    void shift_all(const Key& k) {
        key_[3] = key_[2];
        key_[2] = key_[1];
        key_[1] = key_[0];
        key_[0] = k;
    }

    std::array<Key, 4> key_{};
    std::array<Value, 4> val_{};
    std::uint8_t sigma_ = 4;  // Table-1 identity code
    std::uint8_t v4_ = 0;     // V4 identity
    [[no_unique_address]] Merge merge_{};
};

}  // namespace p4lru::core
