// Property suite for the SoA slab: the flat struct-of-arrays layout must be
// observationally bit-identical to an array of behavioural P4lru units.
//
//   * the packed 2-bit-per-position meta codec is cross-checked against
//     LruState<N> over random apply_hit sequences;
//   * a SoaSlab unit driven by random update/touch/insert_lru/find streams
//     must emit the exact UpdateResult stream and final contents of a P4lru
//     unit, for every N in 1..4 and every merge policy;
//   * a whole ParallelCache on slab storage must match the AoS reference
//     array op for op.
#include "p4lru/core/soa_slab.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/core/lru_state.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/parallel_array.hpp"

namespace p4lru::core {
namespace {

using K = std::uint32_t;
using V = std::uint32_t;

template <typename Key, typename Value>
void expect_same_result(const UpdateResult<Key, Value>& a,
                        const UpdateResult<Key, Value>& b,
                        std::size_t op_index) {
    ASSERT_EQ(a.hit, b.hit) << "op " << op_index;
    ASSERT_EQ(a.hit_pos, b.hit_pos) << "op " << op_index;
    ASSERT_EQ(a.evicted, b.evicted) << "op " << op_index;
    if (a.evicted) {
        ASSERT_EQ(a.evicted_key, b.evicted_key) << "op " << op_index;
        ASSERT_EQ(a.evicted_value, b.evicted_value) << "op " << op_index;
    }
}

// -- packed-state codec vs LruState ------------------------------------

template <std::size_t N>
void codec_matches_lru_state() {
    using Slab = SoaSlab<K, V, N>;
    rng::Xoshiro256 rng(0xC0DEC + N);
    for (int trial = 0; trial < 200; ++trial) {
        LruState<N> ref;
        typename Slab::MetaWord m = Slab::identity_meta();
        for (int step = 0; step < 64; ++step) {
            const auto i = static_cast<std::size_t>(rng.between(1, N));
            ref.apply_hit(i);
            m = Slab::apply_hit(m, i);
            for (std::size_t j = 1; j <= N; ++j) {
                ASSERT_EQ(Slab::slot_of(m, j), ref(j))
                    << "N=" << N << " trial=" << trial << " step=" << step;
            }
        }
    }
}

TEST(SoaMetaCodec, MatchesLruStateN2) { codec_matches_lru_state<2>(); }
TEST(SoaMetaCodec, MatchesLruStateN3) { codec_matches_lru_state<3>(); }
TEST(SoaMetaCodec, MatchesLruStateN4) { codec_matches_lru_state<4>(); }

TEST(SoaMetaCodec, IdentityAndOccupancy) {
    using Slab3 = SoaSlab<K, V, 3>;
    auto m = Slab3::identity_meta();
    EXPECT_EQ(Slab3::occupancy(m), 0u);
    for (std::size_t j = 1; j <= 3; ++j) EXPECT_EQ(Slab3::slot_of(m, j), j);
    m = static_cast<Slab3::MetaWord>(m + (1u << Slab3::kPermBits));
    m = static_cast<Slab3::MetaWord>(m + (1u << Slab3::kPermBits));
    EXPECT_EQ(Slab3::occupancy(m), 2u);
    // Occupancy bits survive permutation rotations.
    m = Slab3::apply_hit(m, 2);
    EXPECT_EQ(Slab3::occupancy(m), 2u);
}

// -- single-unit op-stream equivalence vs P4lru ------------------------

/// Drive slab unit 0 and a P4lru unit with an identical random op stream of
/// update / touch / insert_lru / find, asserting identical observable
/// behaviour at every step and identical final contents.
template <std::size_t N, typename Merge>
void unit_stream_equivalence(std::uint64_t seed) {
    SoaSlab<K, V, N, Merge> slab(1);
    P4lru<K, V, N, Merge> unit;
    rng::Xoshiro256 rng(seed);

    for (int op = 0; op < 4000; ++op) {
        // Small key universe so hits, misses and evictions all occur often.
        const auto k = static_cast<K>(rng.between(1, 2 * N + 2));
        const auto v = static_cast<V>(rng.between(1, 1'000'000));
        switch (rng.between(0, 3)) {
            case 0: {
                expect_same_result(slab.update_at(0, k, v), unit.update(k, v),
                                   static_cast<std::size_t>(op));
                break;
            }
            case 1: {
                ASSERT_EQ(slab.touch_at(0, k, v), unit.touch(k, v))
                    << "op " << op;
                break;
            }
            case 2: {
                const auto a = slab.insert_lru_at(0, k, v);
                const auto b = unit.insert_lru(k, v);
                ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
                if (a) {
                    ASSERT_EQ(a->first, b->first) << "op " << op;
                    ASSERT_EQ(a->second, b->second) << "op " << op;
                }
                break;
            }
            default: {
                ASSERT_EQ(slab.find_at(0, k), unit.find(k)) << "op " << op;
                break;
            }
        }
        ASSERT_EQ(slab.size_at(0), unit.size()) << "op " << op;
    }

    // Final contents: key order and per-key value slots.
    const auto view = slab.unit(0);
    ASSERT_EQ(view.size(), unit.size());
    for (std::size_t i = 1; i <= unit.size(); ++i) {
        EXPECT_EQ(view.key_at(i), unit.key_at(i));
        EXPECT_EQ(view.value_at(i), unit.value_at(i));
    }
}

template <std::size_t N>
void unit_stream_equivalence_all_merges() {
    unit_stream_equivalence<N, ReplaceMerge>(0x5AB0 + N);
    unit_stream_equivalence<N, AddMerge>(0x5AB1 + N);
    unit_stream_equivalence<N, KeepMerge>(0x5AB2 + N);
}

TEST(SoaSlabVsP4lru, OpStreamBitIdenticalN1) {
    unit_stream_equivalence_all_merges<1>();
}
TEST(SoaSlabVsP4lru, OpStreamBitIdenticalN2) {
    unit_stream_equivalence_all_merges<2>();
}
TEST(SoaSlabVsP4lru, OpStreamBitIdenticalN3) {
    unit_stream_equivalence_all_merges<3>();
}
TEST(SoaSlabVsP4lru, OpStreamBitIdenticalN4) {
    unit_stream_equivalence_all_merges<4>();
}

/// Per-call merge overload must match too (the read-pass/write-pass split).
TEST(SoaSlabVsP4lru, PerCallMergeOverload) {
    SoaSlab<K, V, 3> slab(1);
    P4lru<K, V, 3> unit;
    rng::Xoshiro256 rng(0xCA11);
    for (int op = 0; op < 2000; ++op) {
        const auto k = static_cast<K>(rng.between(1, 8));
        const auto v = static_cast<V>(rng.between(1, 1000));
        if (rng.chance(0.5)) {
            expect_same_result(slab.update_at(0, k, v, KeepMerge{}),
                               unit.update(k, v, KeepMerge{}),
                               static_cast<std::size_t>(op));
        } else {
            expect_same_result(slab.update_at(0, k, v, AddMerge{}),
                               unit.update(k, v, AddMerge{}),
                               static_cast<std::size_t>(op));
        }
    }
}

// -- whole-array equivalence via ParallelCache -------------------------

using Unit3 = P4lru<K, V, 3>;
using SoaCache = ParallelCache<Unit3, K, V>;  // defaults to the slab
using AosCache = AosParallelCache<Unit3, K, V>;

static_assert(std::is_same_v<SoaCache::storage_type, SoaSlab<K, V, 3>>,
              "slab must be the default storage for behavioural P4lru units");
static_assert(
    std::is_same_v<AosCache::storage_type, AosStorage<Unit3, K, V>>);

// Unit types the slab cannot hold stay on the AoS reference layout.
static_assert(std::is_same_v<
              default_storage_t<P4lru<std::string, std::string, 3>,
                                std::string, std::string>,
              AosStorage<P4lru<std::string, std::string, 3>, std::string,
                         std::string>>);
static_assert(std::is_same_v<default_storage_t<P4lru<K, V, 6>, K, V>,
                             AosStorage<P4lru<K, V, 6>, K, V>>);

TEST(SoaVsAosArray, ZipfStreamBitIdentical) {
    SoaCache soa(256, 0xA11CE);
    AosCache aos(256, 0xA11CE);
    const auto keys = testutil::random_keys(60'000, 2048, 0xFEED, 0.55);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        expect_same_result(soa.update(keys[i], keys[i] * 3 + 1),
                           aos.update(keys[i], keys[i] * 3 + 1), i);
    }
    ASSERT_EQ(soa.size(), aos.size());
    for (std::size_t u = 0; u < soa.unit_count(); ++u) {
        const auto view = soa.unit(u);
        const auto& unit = aos.unit(u);
        ASSERT_EQ(view.size(), unit.size()) << "unit " << u;
        for (std::size_t i = 1; i <= unit.size(); ++i) {
            EXPECT_EQ(view.key_at(i), unit.key_at(i)) << "unit " << u;
            EXPECT_EQ(view.value_at(i), unit.value_at(i)) << "unit " << u;
        }
    }
}

TEST(SoaVsAosArray, MixedOpStreamBitIdentical) {
    SoaCache soa(64, 0xB0B);
    AosCache aos(64, 0xB0B);
    rng::Xoshiro256 rng(0x717);
    for (int op = 0; op < 30'000; ++op) {
        const auto k = static_cast<K>(rng.between(1, 700));
        const auto v = static_cast<V>(rng.between(1, 1'000'000));
        switch (rng.between(0, 3)) {
            case 0:
                expect_same_result(soa.update(k, v), aos.update(k, v),
                                   static_cast<std::size_t>(op));
                break;
            case 1:
                ASSERT_EQ(soa.touch(k, v), aos.touch(k, v)) << "op " << op;
                break;
            case 2: {
                const auto a = soa.insert_lru(k, v);
                const auto b = aos.insert_lru(k, v);
                ASSERT_EQ(a, b) << "op " << op;
                break;
            }
            default:
                ASSERT_EQ(soa.find(k), aos.find(k)) << "op " << op;
                break;
        }
    }
    ASSERT_EQ(soa.size(), aos.size());
}

TEST(SoaVsAosArray, FlowKeyStreamBitIdentical) {
    using FUnit = P4lru<FlowKey, std::uint32_t, 2>;
    ParallelCache<FUnit, FlowKey, std::uint32_t> soa(128, 0xF10);
    AosParallelCache<FUnit, FlowKey, std::uint32_t> aos(128, 0xF10);
    static_assert(std::is_same_v<decltype(soa)::storage_type,
                                 SoaSlab<FlowKey, std::uint32_t, 2>>);
    rng::Xoshiro256 rng(0xF10F10);
    for (int op = 0; op < 20'000; ++op) {
        const auto f =
            testutil::make_flow(static_cast<std::uint32_t>(rng.between(1, 900)));
        const auto v = static_cast<std::uint32_t>(rng.between(1, 9000));
        expect_same_result(soa.update(f, v), aos.update(f, v),
                           static_cast<std::size_t>(op));
    }
    ASSERT_EQ(soa.size(), aos.size());
}

// -- UnitView vocabulary -----------------------------------------------

TEST(SoaUnitView, MatchesP4lruAccessors) {
    SoaSlab<K, V, 3> slab(1);
    P4lru<K, V, 3> unit;
    for (K k : {10u, 20u, 30u, 20u, 40u}) {
        slab.update_at(0, k, k * 2);
        unit.update(k, k * 2);
    }
    const auto view = slab.unit(0);
    EXPECT_EQ(view.size(), unit.size());
    EXPECT_EQ(view.capacity(), unit.capacity());
    EXPECT_EQ(view.full(), unit.full());
    for (std::size_t i = 1; i <= unit.size(); ++i) {
        EXPECT_EQ(view.key_at(i), unit.key_at(i));
        EXPECT_EQ(view.value_at(i), unit.value_at(i));
    }
    EXPECT_EQ(view.contains(20), unit.contains(20));
    EXPECT_EQ(view.contains(999), unit.contains(999));
    EXPECT_EQ(view.find(40), unit.find(40));
}

}  // namespace
}  // namespace p4lru::core
