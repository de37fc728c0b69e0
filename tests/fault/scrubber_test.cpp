// State scrubber: every injected meta-plane corruption must be detected
// (ISSUE acceptance: 100% detection) and repaired to a legal MRU-reset word
// without aborting the replay; on a clean cache the scrubber must find
// nothing and change nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/soa_slab.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../checkpoint_util.hpp"

namespace p4lru::core {
namespace {

using Slab3 = SoaSlab<std::uint64_t, std::uint32_t, 3>;
using FlowCache =
    ParallelCache<P4lru<FlowKey, std::uint32_t, 3>, FlowKey, std::uint32_t>;

// -- meta_valid truth table ----------------------------------------------

TEST(MetaValid, AcceptsEveryReachableWord) {
    // Drive one unit through a long update history; its meta word must stay
    // valid at every step (the scrubber never fires on honest state).
    Slab3 slab(4);
    for (std::uint64_t i = 0; i < 2'000; ++i) {
        slab.update_at(i % 4, i % 17, static_cast<std::uint32_t>(i));
        EXPECT_TRUE(Slab3::meta_valid(slab.meta_at(i % 4)));
    }
}

TEST(MetaValid, RejectsDuplicateSlots) {
    // Fields (0,0,1): slot 1 appears twice, slot 3 never — not a permutation.
    const auto m = static_cast<Slab3::MetaWord>(0b00'01'00'00);
    EXPECT_FALSE(Slab3::meta_valid(m));
}

TEST(MetaValid, RejectsOutOfRangeSlot) {
    // Field value 3 = slot 4 > N.
    const auto m = static_cast<Slab3::MetaWord>(0b00'11'01'00);
    EXPECT_FALSE(Slab3::meta_valid(m));
}

TEST(MetaValid, RejectsOverflowedOccupancy) {
    // N = 3 packs occupancy into 2 bits, so it can never exceed N; N = 4
    // has 8 occupancy bits and CAN hold an impossible count.
    using Slab4 = SoaSlab<std::uint64_t, std::uint32_t, 4>;
    const auto perm = Slab4::identity_meta();
    const auto m =
        static_cast<Slab4::MetaWord>(perm | (7u << Slab4::kPermBits));
    EXPECT_FALSE(Slab4::meta_valid(m));
}

TEST(MetaValid, AnySingleFieldFlipOfAValidWordIsCaught) {
    // Exhaustive over the N=3 word: for every valid meta word and every
    // nonzero XOR mask confined to one 2-bit permutation field, the result
    // must be invalid — this is the "scrubber detects 100% of meta-plane
    // corruptions" guarantee, provable because changing one field of a
    // permutation always creates a duplicate or an out-of-range slot.
    for (unsigned w = 0; w < 256; ++w) {
        const auto m = static_cast<Slab3::MetaWord>(w);
        if (!Slab3::meta_valid(m)) continue;
        for (unsigned field = 0; field < 3; ++field) {
            for (unsigned mask = 1; mask < 4; ++mask) {
                const auto bad = static_cast<Slab3::MetaWord>(
                    m ^ (mask << (2 * field)));
                EXPECT_FALSE(Slab3::meta_valid(bad))
                    << "word " << w << " field " << field << " mask " << mask;
            }
        }
    }
}

// -- scrub_range ----------------------------------------------------------

TEST(Scrubber, CleanSlabScansWithZeroFindings) {
    Slab3 slab(64);
    for (std::uint64_t i = 0; i < 500; ++i) {
        slab.update_at(i % 64, i, static_cast<std::uint32_t>(i));
    }
    const auto r = slab.scrub_range(0, 64);
    EXPECT_EQ(r.scanned, 64u);
    EXPECT_EQ(r.corrupt, 0u);
    EXPECT_EQ(r.repaired, 0u);
}

TEST(Scrubber, DetectsAndRepairsEveryInjectedCorruption) {
    Slab3 slab(128);
    for (std::uint64_t i = 0; i < 2'000; ++i) {
        slab.update_at(i % 128, i, static_cast<std::uint32_t>(i));
    }
    // Corrupt a spread of units with distinct single-field masks.
    const std::size_t victims[] = {0, 17, 63, 64, 90, 127};
    unsigned mask = 1;
    for (const std::size_t b : victims) {
        slab.corrupt_meta_at(b, mask);
        mask = mask % 3 + 1;  // cycle 1,2,3 — all single-field flips
    }
    const auto r = slab.scrub_range(0, 128);
    EXPECT_EQ(r.scanned, 128u);
    EXPECT_EQ(r.corrupt, std::size(victims)) << "100% detection";
    EXPECT_EQ(r.repaired, std::size(victims));
    // Post-repair the slab is fully valid and usable again.
    for (std::size_t b = 0; b < 128; ++b) {
        EXPECT_TRUE(Slab3::meta_valid(slab.meta_at(b)));
    }
    for (std::uint64_t i = 0; i < 500; ++i) {
        slab.update_at(i % 128, i + 9'000, 1u);
    }
}

TEST(Scrubber, RepairPreservesPlausibleOccupancy) {
    Slab3 slab(4);
    slab.update_at(0, 1, 10);
    slab.update_at(0, 2, 20);  // occupancy 2
    // Flip one permutation field only; occupancy bits stay 2.
    slab.corrupt_meta_at(0, 0b10);
    const auto r = slab.scrub_range(0, 4);
    EXPECT_EQ(r.repaired, 1u);
    EXPECT_EQ(Slab3::occupancy(slab.meta_at(0)), 2u)
        << "repair keeps the occupancy when it is still within [0, N]";
    EXPECT_TRUE(Slab3::meta_valid(slab.meta_at(0)));
}

// -- replay integration ---------------------------------------------------

std::vector<replay::ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 31;
    cfg.total_packets = 60'000;
    return replay::ops_from_packets(trace::generate_trace(cfg));
}

TEST(Scrubber, ReplayRepairsInjectedCorruptionWithoutAborting) {
    const auto ops = zipf_ops();

    fault::FaultPlan plan;
    plan.corrupt_meta(/*unit=*/11, /*at_op=*/5'000, /*xor_mask=*/0b01);
    plan.corrupt_meta(/*unit=*/200, /*at_op=*/20'000, /*xor_mask=*/0b10);
    plan.corrupt_meta(/*unit=*/777, /*at_op=*/40'000, /*xor_mask=*/0b11);
    const fault::InjectedFaults faults(plan);

    FlowCache cache(1024, 0x5C2);
    replay::ShardedConfig cfg;
    cfg.mode = replay::Mode::kInline;  // data faults need a single owner
    cfg.robust.scrub_every = 1'024;
    const auto rep = testutil::cache_sharded(cache, ops, cfg, faults);

    EXPECT_EQ(rep.stats.ops, ops.size()) << "no abort: every op processed";
    EXPECT_EQ(rep.scrub.corrupt, 3u) << "all injected corruptions found";
    EXPECT_EQ(rep.scrub.repaired, 3u);
    EXPECT_TRUE(rep.degraded());
    // The cache came out structurally sound.
    EXPECT_EQ(cache.scrub_all().corrupt, 0u);
}

/// One inline shard (the engine's sequential mode) with the scrubber off,
/// then on every 4096 ops.
TEST(Scrubber, ScrubbedSequentialReplayIsBitIdenticalWhenClean) {
    const auto ops = zipf_ops();
    replay::ShardedConfig cfg = testutil::sequential_config();
    FlowCache plain(512, 0x99);
    const auto ref = testutil::cache_sharded(plain, ops, cfg);
    EXPECT_EQ(ref.scrub.scanned, 0u);

    cfg.robust.scrub_every = 4'096;
    FlowCache scrubbed(512, 0x99);
    const auto r = testutil::cache_sharded(scrubbed, ops, cfg);
    EXPECT_EQ(r.stats, ref.stats)
        << "scrubbing a healthy cache changes nothing";
    EXPECT_EQ(testutil::plane_bytes(scrubbed.storage()),
              testutil::plane_bytes(plain.storage()));
    EXPECT_GT(r.scrub.scanned, 0u);
    EXPECT_EQ(r.scrub.corrupt, 0u);
}

/// Scrub-cadence exactness: the inline path must fire its scrub once per
/// `scrub_every` ops, for scrub cadences below, at, and above the dispatch
/// block size.  An engine that scrubbed at most once per block and
/// discarded the overshoot would under-scrub by up to
/// batch_ops/scrub_every times with scrub_every < batch_ops; the remainder
/// carry prevents that.  Each firing scans the whole unit array, so the
/// scanned total is (ops / scrub_every) * units exactly.
TEST(Scrubber, InlineShardedScrubCadenceMatchesSequential) {
    const auto ops = zipf_ops();
    constexpr std::size_t kUnits = 512;
    FlowCache seq(kUnits, 0x77);
    const auto ref = testutil::cache_sequential(seq, ops);

    const std::uint64_t cadences[] = {64, 100, 256, 1'000, 4'096};
    for (const std::uint64_t scrub_every : cadences) {
        FlowCache inl(kUnits, 0x77);
        replay::ShardedConfig cfg;
        cfg.mode = replay::Mode::kInline;
        cfg.batch_ops = 256;  // cadences above span both < and > this
        cfg.robust.scrub_every = scrub_every;
        const auto rep = testutil::cache_sharded(inl, ops, cfg);

        EXPECT_EQ(rep.scrub.scanned, (ops.size() / scrub_every) * kUnits)
            << "scrub_every=" << scrub_every;
        EXPECT_EQ(rep.stats, ref) << "scrub_every=" << scrub_every;
        EXPECT_EQ(rep.scrub.corrupt, 0u);
    }
}

TEST(Scrubber, AosStorageScansCleanByConstruction) {
    AosParallelCache<P4lru<std::uint32_t, std::uint32_t, 3>, std::uint32_t,
                     std::uint32_t>
        cache(64, 3);
    for (std::uint32_t i = 0; i < 1'000; ++i) cache.update(i, i);
    const auto r = cache.scrub_all();
    EXPECT_EQ(r.scanned, 64u);
    EXPECT_EQ(r.corrupt, 0u);
}

}  // namespace
}  // namespace p4lru::core
