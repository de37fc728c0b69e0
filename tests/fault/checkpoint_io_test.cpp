// On-disk checkpoint format hardening for the bare P4LRU array (mirrors
// trace_io_test): the array checkpoints as a CacheReplayTarget into the one
// P4LRUTGC format, and this suite pins round-trip fidelity for sharded and
// sequential checkpoints, an exhaustive all-prefix truncation sweep,
// count-field corruption that must not drive allocations, and the
// cross-layout rejection the state id exists for — a checkpoint written
// from one storage layout must refuse to resume into the other even when
// it reaches the cache through a byte-faithful disk round-trip.
#include "p4lru/replay/target_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../checkpoint_util.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;
template <typename Cache>
using FlowTarget = CacheReplayTarget<Cache, FlowKey, std::uint32_t>;
using Ops = std::span<const ReplayOp<FlowKey, std::uint32_t>>;
using Checkpoint = TargetCheckpoint<ReplayStats>;
using testutil::cache_sequential;
using testutil::resume_sequential;
using testutil::sequential_checkpoint;

std::vector<ReplayOp<FlowKey, std::uint32_t>> small_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 21;
    cfg.total_packets = 20'000;
    return ops_from_packets(trace::generate_trace(cfg));
}

Expected<Checkpoint> read_back(const std::string& path) {
    return read_target_checkpoint_checked<ReplayStats>(path);
}

class CheckpointIoTest : public ::testing::Test {
  protected:
    void SetUp() override { path_ = dir_.file("ckpt.bin"); }

    /// A mid-run sharded checkpoint with several shard slices, over a small
    /// cache so the sweep stays fast.
    Checkpoint sample_checkpoint() {
        const auto ops = small_ops();
        FlowCache cache(64, 0x9D);
        FlowTarget<FlowCache> target(cache);
        ShardedConfig cfg;
        cfg.shards = 3;
        cfg.batch_ops = 128;
        cfg.mode = Mode::kThreaded;
        std::vector<Checkpoint> cps;
        SpanOpSource source{Ops(ops)};
        (void)replay_target_checkpointed_stream(
            target, source, cfg, /*every_batches=*/24,
            [&](Checkpoint&& cp) { cps.push_back(std::move(cp)); });
        EXPECT_FALSE(cps.empty());
        return cps.front();
    }

    testutil::ScopedTempDir dir_{"p4lru_ckpt_io"};
    std::string path_;
};

void expect_equal(const Checkpoint& a, const Checkpoint& b) {
    EXPECT_EQ(a.cursor, b.cursor);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.unit_count, b.unit_count);
    EXPECT_EQ(a.state_id, b.state_id);
    EXPECT_EQ(a.state_fingerprint, b.state_fingerprint);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.shard_stats, b.shard_stats);
    EXPECT_EQ(a.delivered_batches, b.delivered_batches);
    EXPECT_EQ(a.backpressure_waits, b.backpressure_waits);
    EXPECT_EQ(a.park_wait_us, b.park_wait_us);
    EXPECT_EQ(a.drained_inline, b.drained_inline);
    EXPECT_EQ(a.abandoned_workers, b.abandoned_workers);
    EXPECT_EQ(a.scrub, b.scrub);
}

TEST_F(CheckpointIoTest, ShardedRoundTripPreservesEveryField) {
    const auto cp = sample_checkpoint();
    EXPECT_EQ(cp.shard_stats.size(), 3u);
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto rd = read_back(path_);
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
    expect_equal(cp, rd.value());
}

TEST_F(CheckpointIoTest, SequentialCheckpointRoundTripsThroughSameReader) {
    const auto ops = small_ops();
    FlowCache cache(64, 0x9D);
    ReplayStats s = cache_sequential(cache, Ops(ops).first(10'000));
    const auto cp =
        sequential_checkpoint(FlowTarget<FlowCache>(cache), 10'000, s);
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto rd = read_back(path_);
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
    ASSERT_EQ(rd.value().shard_stats.size(), 1u);
    EXPECT_EQ(rd.value().shard_stats[0], s);
    EXPECT_EQ(rd.value().state, cp.state);

    FlowCache resumed(64, 0x9D);
    FlowTarget<FlowCache> target(resumed);
    const auto res = resume_sequential(target, Ops(ops), rd.value());
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    FlowCache ref(64, 0x9D);
    EXPECT_EQ(res.value(), cache_sequential(ref, Ops(ops)));
}

TEST_F(CheckpointIoTest, MissingFileIsIoErrorWithPathAndErrno) {
    const auto rd = read_back("/nonexistent/dir/x.ckpt");
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kIoError);
    // The message must carry the offending path and the OS-level cause,
    // not just "cannot open".
    EXPECT_NE(rd.status().message().find("/nonexistent/dir/x.ckpt"),
              std::string::npos)
        << rd.status().to_string();
    EXPECT_NE(rd.status().message().find("errno"), std::string::npos)
        << rd.status().to_string();
}

TEST_F(CheckpointIoTest, BadMagicRejectedAtOffsetZero) {
    std::ofstream os(path_, std::ios::binary);
    os << std::string(200, 'x');
    os.close();
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 0u);
}

/// Patch `bytes` over a written checkpoint file at `offset`.
void patch_file(const std::string& path, std::uint64_t offset,
                const void* bytes, std::size_t n) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

TEST_F(CheckpointIoTest, WrongVersionRejected) {
    ASSERT_TRUE(write_target_checkpoint(path_, sample_checkpoint()).is_ok());
    const std::uint32_t bad = 99;
    patch_file(path_, 8, &bad, 4);
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 8u);
}

/// A shard count no file could hold (the u32 field's maximum): the size
/// cross-check must refuse it before any per-shard record is allocated.
TEST_F(CheckpointIoTest, InsaneShardCountRejectedBeforeAllocating) {
    ASSERT_TRUE(write_target_checkpoint(path_, sample_checkpoint()).is_ok());
    const auto full = std::filesystem::file_size(path_);
    const std::uint32_t bad = ~std::uint32_t{0};
    patch_file(path_, 108, &bad, 4);  // shard count field
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kTruncated);
    EXPECT_EQ(rd.status().offset(), full);
}

TEST_F(CheckpointIoTest, OversizedPlanePromiseRejected) {
    ASSERT_TRUE(write_target_checkpoint(path_, sample_checkpoint()).is_ok());
    const std::uint64_t bad = ~std::uint64_t{0} - 64;
    patch_file(path_, 112, &bad, 8);  // state (plane image) size field
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kTruncated);
}

TEST_F(CheckpointIoTest, TrailingGarbageRejected) {
    ASSERT_TRUE(write_target_checkpoint(path_, sample_checkpoint()).is_ok());
    const auto full = std::filesystem::file_size(path_);
    std::ofstream os(path_, std::ios::binary | std::ios::app);
    os << "junk";
    os.close();
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), full);
}

/// Mirror of trace_io_test's sweep: every strict prefix of a valid
/// checkpoint file must be rejected with a typed error whose offset (when
/// present) points inside the truncated file.  The sample cache is small
/// (64 units) so the sweep covers header, stats records and plane bytes in
/// a few thousand iterations.
TEST_F(CheckpointIoTest, EveryTruncationPrefixIsRejectedWithOffset) {
    const auto cp = sample_checkpoint();
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto full = std::filesystem::file_size(path_);

    for (std::uintmax_t cut = 0; cut < full; ++cut) {
        ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());  // restore
        std::filesystem::resize_file(path_, cut);
        const auto r = read_back(path_);
        ASSERT_FALSE(r.is_ok()) << "prefix of " << cut << " bytes parsed";
        const auto code = r.status().code();
        EXPECT_TRUE(code == ErrorCode::kCorrupt ||
                    code == ErrorCode::kTruncated)
            << "prefix " << cut << ": " << r.status().to_string();
        if (r.status().has_offset()) {
            EXPECT_LE(r.status().offset(), cut)
                << "offset must point inside the truncated file";
        }
    }
}

/// The layout guard, end to end through disk: a checkpoint taken from the
/// AoS layout must be rejected by a SoA cache with kInvalidState — before
/// any plane byte is interpreted — even though the file itself is
/// perfectly well-formed.
TEST_F(CheckpointIoTest, CrossLayoutResumeRejectedAfterDiskRoundTrip) {
    const auto ops = small_ops();
    AosFlowCache aos(64, 0x9D);
    ReplayStats s = cache_sequential(aos, Ops(ops).first(5'000));
    ASSERT_TRUE(write_target_checkpoint(
                    path_, sequential_checkpoint(
                               FlowTarget<AosFlowCache>(aos), 5'000, s))
                    .is_ok());
    const auto rd = read_back(path_);
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();

    FlowCache soa(64, 0x9D);
    FlowTarget<FlowCache> soa_target(soa);
    const auto res = resume_sequential(soa_target, Ops(ops), rd.value());
    ASSERT_FALSE(res.is_ok()) << "SoA cache accepted an AoS checkpoint";
    EXPECT_EQ(res.status().code(), ErrorCode::kInvalidState);

    SpanOpSource source{Ops(ops)};
    const auto sharded =
        resume_target_sharded_stream(soa_target, source, rd.value());
    ASSERT_FALSE(sharded.is_ok());
    EXPECT_EQ(sharded.status().code(), ErrorCode::kInvalidState);

    // Same-layout restore of the identical file stays accepted.
    AosFlowCache back(64, 0x9D);
    FlowTarget<AosFlowCache> back_target(back);
    const auto ok = resume_sequential(back_target, Ops(ops), rd.value());
    EXPECT_TRUE(ok.is_ok()) << ok.status().to_string();
}

/// Unsealed version-1 files (the same layout without the seal footer) are
/// no longer read: writers have emitted only sealed images for a long
/// time, and an unsealed image gets no CRC protection at all.
TEST_F(CheckpointIoTest, LegacyV1FileWithoutSealRejected) {
    const SerializedCheckpoint image =
        serialize_target_checkpoint(sample_checkpoint());
    std::vector<std::byte> v1 = image.image.flatten();
    v1.resize(v1.size() - 16);
    const std::uint32_t version1 = 1;
    std::memcpy(v1.data() + 8, &version1, 4);
    std::ofstream os(path_, std::ios::binary);
    os.write(reinterpret_cast<const char*>(v1.data()),
             static_cast<std::streamsize>(v1.size()));
    os.close();
    const auto rd = read_back(path_);
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 8u);
}

/// The seal at work: one flipped byte in each section must be caught by
/// that section's CRC, with the error offset naming the section start.
/// (The exhaustive every-bit sweep lives in durable_store_test; this is
/// the targeted per-section smoke.)
TEST_F(CheckpointIoTest, FlippedByteInEachSectionCaughtBySectionCrc) {
    const SerializedCheckpoint image =
        serialize_target_checkpoint(sample_checkpoint());
    ASSERT_EQ(image.section_ends.size(), 4u);
    const std::uint64_t records_begin = image.section_ends[0];  // 120
    const std::uint64_t planes_begin = image.section_ends[1];
    const std::uint64_t footer_begin = image.section_ends[2];
    struct Case {
        std::uint64_t flip_at;
        std::uint64_t expect_offset;
    };
    const Case cases[] = {
        {records_begin + 3, records_begin},  // stats-record byte
        {planes_begin + 7, planes_begin},    // plane byte
        {footer_begin + 1, footer_begin},    // a stored CRC itself
    };
    for (const auto& c : cases) {
        std::vector<std::byte> bad = image.image.flatten();
        bad[static_cast<std::size_t>(c.flip_at)] ^= std::byte{0x10};
        const auto rd = parse_target_checkpoint<ReplayStats>(
            bad, "flip@" + std::to_string(c.flip_at));
        ASSERT_FALSE(rd.is_ok()) << "flip at " << c.flip_at << " accepted";
        EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(rd.status().offset(), c.expect_offset)
            << rd.status().to_string();
    }
}

/// Forged-but-plausible image: even when a file carries plane bytes of
/// exactly the size the target layout expects and the right layout id,
/// the fingerprint check refuses it.
TEST_F(CheckpointIoTest, MatchingSizeButWrongFingerprintRejected) {
    FlowCache soa(64, 0x9D);
    Checkpoint cp =
        sequential_checkpoint(FlowTarget<FlowCache>(soa), 0, ReplayStats{});
    cp.state_fingerprint ^= 1;  // geometry lie; state id and size intact
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto rd = read_back(path_);
    ASSERT_TRUE(rd.is_ok());
    const auto ops = small_ops();
    FlowCache target_cache(64, 0x9D);
    FlowTarget<FlowCache> target(target_cache);
    const auto res = resume_sequential(target, Ops(ops), rd.value());
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kInvalidState);
}

}  // namespace
}  // namespace p4lru::replay
