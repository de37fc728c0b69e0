// Fuzz campaign + protocol tests for the durable checkpoint store
// (DESIGN.md §12).
//
// Format hardening of the one on-disk format (P4LRUTGC), over a real
// mid-run image of the P4LRU array (CacheReplayTarget) and a synthetic
// image with every header field non-trivial:
//   * exhaustive truncation sweep — every strict byte prefix of a sealed
//     image is rejected by the typed parser AND the Stats-agnostic
//     verifier, never accepted, never a crash;
//   * single-bit-flip sweep — flips in every section (header, stats
//     records, state payload, seal footer) are rejected; CRC-attributable
//     flips name the damaged section's start offset;
//   * a crafted image whose size fields wrap 64-bit arithmetic, with valid
//     header and footer CRCs, is rejected without reading past the image.
//
// Store protocol: atomic install / generation numbering / retention /
// newest-valid pruning immunity, the exact on-disk remains of every
// fault::CrashPoint, and the recovery ladder skipping torn + bit-flipped
// generations down to the newest valid one with a typed rejection recorded
// per skip.
#include "p4lru/replay/durable_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/common/hash.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/checkpoint_io.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

namespace fs = std::filesystem;

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using FlowTarget = CacheReplayTarget<FlowCache, FlowKey, std::uint32_t>;
using Ops = std::span<const ReplayOp<FlowKey, std::uint32_t>>;

// ---------------------------------------------------------------------------
// Sample images: one real mid-run checkpoint of the array (small cache so
// the byte-exhaustive sweeps stay fast) and one hand-built checkpoint with
// every field non-trivial.

const SerializedCheckpoint& cache_image() {
    static const SerializedCheckpoint img = [] {
        trace::TraceConfig tcfg;
        tcfg.seed = 77;
        tcfg.total_packets = 4'000;
        const auto ops = ops_from_packets(trace::generate_trace(tcfg));
        FlowCache cache(16, 0x5C);
        FlowTarget target(cache);
        ShardedConfig cfg;
        cfg.shards = 3;
        cfg.batch_ops = 64;
        cfg.mode = Mode::kThreaded;
        std::vector<TargetCheckpoint<ReplayStats>> cps;
        SpanOpSource source{Ops(ops)};
        (void)replay_target_checkpointed_stream(
            target, source, cfg, /*every_batches=*/8,
            [&](TargetCheckpoint<ReplayStats>&& cp) {
                cps.push_back(std::move(cp));
            });
        EXPECT_FALSE(cps.empty());
        return serialize_target_checkpoint(std::move(cps.front()));
    }();
    return img;
}

TargetCheckpoint<ReplayStats> sample_checkpoint() {
    TargetCheckpoint<ReplayStats> cp;
    cp.cursor = 4'096;
    cp.stats = {4'096, 2'000, 2'096, 37};
    cp.unit_count = 16;
    cp.state_id = 7;
    cp.state_fingerprint = 0x1122334455667788ULL;
    cp.shard_stats = {{2'000, 900, 1'100, 20}, {2'096, 1'100, 996, 17}};
    cp.delivered_batches = 99;
    cp.backpressure_waits = 3;
    cp.park_wait_us = 512;
    cp.drained_inline = 1;
    cp.abandoned_workers = 0;
    cp.scrub = {160, 2, 2};
    cp.state.resize(600);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // deterministic fill
    for (auto& b : cp.state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<std::byte>(x >> 56);
    }
    return cp;
}

const SerializedCheckpoint& synthetic_image() {
    static const SerializedCheckpoint img =
        serialize_target_checkpoint(sample_checkpoint());
    return img;
}

/// Outcome of the typed reader on raw bytes.
Status typed_parse(const std::vector<std::byte>& bytes) {
    const auto r = parse_target_checkpoint<ReplayStats>(bytes, "fuzz");
    return r.is_ok() ? Status::ok() : r.status();
}

struct ImageCase {
    const SerializedCheckpoint* image;
    const char* name;
};

std::vector<ImageCase> image_cases() {
    return {{&cache_image(), "cache"}, {&synthetic_image(), "synthetic"}};
}

// ---------------------------------------------------------------------------
// Fuzz campaign, leg 1: every strict prefix is rejected.

TEST(DurableFuzz, EveryTruncationPrefixRejectedCacheAndSyntheticImages) {
    for (const auto& fc : image_cases()) {
        const std::vector<std::byte> bytes = fc.image->image.flatten();
        ASSERT_GE(bytes.size(), 100u) << fc.name;
        // Full image parses and verifies; every strict prefix must not.
        ASSERT_TRUE(typed_parse(bytes).is_ok()) << fc.name;
        ASSERT_TRUE(verify_checkpoint_image(bytes, fc.name).is_ok());
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::vector<std::byte> prefix(bytes.begin(),
                                                bytes.begin() + cut);
            const Status st = typed_parse(prefix);
            ASSERT_FALSE(st.is_ok())
                << fc.name << ": prefix of " << cut << " bytes parsed";
            ASSERT_TRUE(st.code() == ErrorCode::kCorrupt ||
                        st.code() == ErrorCode::kTruncated)
                << fc.name << " prefix " << cut << ": " << st.to_string();
            ASSERT_FALSE(verify_checkpoint_image(prefix, fc.name).is_ok())
                << fc.name << ": verifier accepted prefix of " << cut;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz campaign, leg 2: single-bit flips in every section are rejected.
// Small sections are flipped exhaustively (every bit); the state payload
// gets a seeded random sample.  Where the damage is CRC-attributable (the
// flip survives the structural checks), the reported offset must name the
// damaged section's start.

TEST(DurableFuzz,
     SingleBitFlipInEverySectionRejectedCacheAndSyntheticImages) {
    std::mt19937_64 rng(0xF1A9u);
    for (const auto& fc : image_cases()) {
        const auto& img = *fc.image;
        const std::vector<std::byte> bytes = img.image.flatten();
        ASSERT_EQ(img.section_ends.size(), 4u) << fc.name;
        std::uint64_t begin = 0;
        for (std::size_t sec = 0; sec < img.section_ends.size(); ++sec) {
            const std::uint64_t end = img.section_ends[sec];
            const std::uint64_t len = end - begin;
            ASSERT_GT(len, 0u) << fc.name << " section " << sec;
            // (position, bit) pairs to flip in this section.
            std::vector<std::pair<std::uint64_t, unsigned>> flips;
            if (len <= 256) {
                for (std::uint64_t p = begin; p < end; ++p) {
                    for (unsigned bit = 0; bit < 8; ++bit) {
                        flips.emplace_back(p, bit);
                    }
                }
            } else {
                for (int i = 0; i < 256; ++i) {
                    flips.emplace_back(begin + rng() % len,
                                       static_cast<unsigned>(rng() % 8));
                }
            }
            for (const auto& [pos, bit] : flips) {
                std::vector<std::byte> dam = bytes;
                dam[pos] ^= static_cast<std::byte>(1u << bit);
                const Status st = typed_parse(dam);
                ASSERT_FALSE(st.is_ok())
                    << fc.name << ": flip of bit " << bit << " at byte "
                    << pos << " (section " << sec << ") accepted";
                ASSERT_FALSE(verify_checkpoint_image(dam, fc.name).is_ok())
                    << fc.name << ": verifier accepted flip at " << pos;
                // CRC-attributed mismatches name the damaged section.
                if (st.to_string().find("CRC mismatch") !=
                    std::string::npos) {
                    ASSERT_TRUE(st.has_offset()) << st.to_string();
                    // The seal footer's own CRCs are reported at the
                    // footer; any body CRC points at its section start.
                    ASSERT_TRUE(st.offset() == begin ||
                                st.offset() == img.section_ends[2])
                        << fc.name << ": flip at " << pos << " in section "
                        << sec << " reported at " << st.offset() << ": "
                        << st.to_string();
                }
            }
            begin = end;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz campaign, leg 3: size fields that wrap 64-bit arithmetic.  The
// shard count is 2^30 and the state size is chosen so that header + records
// + state + seal adds up, modulo 2^64, to exactly the image size; the
// header CRC and the footer's own CRC are recomputed, so a reader that sums
// the promises (instead of checking them against what is left of the body)
// finds a "consistent" image and then CRCs 2^35 bytes of stats records
// past its end.  Both readers must reject it as truncated or corrupt.

TEST(DurableFuzz, WrappingSizeFieldsRejectedWithoutReadingPastImage) {
    std::vector<std::byte> img = synthetic_image().image.flatten();
    const std::uint64_t size = img.size();
    const std::uint64_t record = sizeof(ReplayStats);
    const std::uint32_t shards = 1u << 30;
    const std::uint64_t records = record * (std::uint64_t{shards} + 1);
    const std::uint64_t state = size - 120 - 16 - records;  // wraps
    ASSERT_EQ(120 + records + state + 16, size) << "sum must wrap to size";
    const auto put = [&](std::uint64_t off, std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i) {
            img[off + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
        }
    };
    const auto crc = [&](std::uint64_t off, std::uint64_t len) {
        return hash::crc32(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(img.data()) + off, len));
    };
    put(108, shards, 4);
    put(112, state, 8);
    const std::uint64_t footer = size - 16;  // where the wrapped sum lands
    put(footer, crc(0, 120), 4);
    put(footer + 12, crc(footer, 12), 4);

    const Status typed = typed_parse(img);
    ASSERT_FALSE(typed.is_ok());
    EXPECT_TRUE(typed.code() == ErrorCode::kTruncated ||
                typed.code() == ErrorCode::kCorrupt)
        << typed.to_string();
    const Status verified = verify_checkpoint_image(img, "wrap");
    ASSERT_FALSE(verified.is_ok());
    EXPECT_TRUE(verified.code() == ErrorCode::kTruncated ||
                verified.code() == ErrorCode::kCorrupt)
        << verified.to_string();
}

// ---------------------------------------------------------------------------
// Store protocol.

std::vector<std::uint64_t> seqs(const std::vector<GenerationInfo>& gens) {
    std::vector<std::uint64_t> out;
    for (const auto& g : gens) out.push_back(g.seq);
    return out;
}

TEST(DurableStoreTest, InstallNumbersGenerationsAndListsAscending) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    EXPECT_TRUE(store.list().empty()) << "missing dir must list empty";
    for (std::uint64_t want = 1; want <= 3; ++want) {
        const auto gen = store.install(synthetic_image());
        ASSERT_TRUE(gen.is_ok()) << gen.status().to_string();
        EXPECT_EQ(gen.value().seq, want);
        EXPECT_TRUE(fs::exists(gen.value().path));
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DurableStoreTest, ListIgnoresTempAndForeignFiles) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    ASSERT_TRUE(store.install(synthetic_image()).is_ok());
    const auto noise = {"gen-000099.ckpt.tmp", "gen-junk.ckpt", "README",
                        "gen-.ckpt"};
    for (const auto* name : noise) {
        std::ofstream(fs::path(store.dir()) / name) << "noise";
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{1}))
        << "temp and foreign names must be invisible";
}

TEST(DurableStoreTest, RetentionKeepsNewestK) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(store.install(synthetic_image()).is_ok());
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(DurableStoreTest, PruneNeverDeletesNewestValidGeneration) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 1, .sync = false});
    // One valid generation, then a burst of torn installs above it.
    ASSERT_TRUE(store.install(synthetic_image()).is_ok());
    for (std::uint64_t ord = 0; ord < 3; ++ord) {
        const fault::CrashEvent crash{ord, fault::CrashPoint::kTornInstall,
                                      /*arg=*/ord % 3};
        const auto out = store.install_with_crash(synthetic_image(), &crash);
        ASSERT_TRUE(out.is_ok()) << out.status().to_string();
        EXPECT_TRUE(out.value().crashed);
    }
    ASSERT_TRUE(store.prune().is_ok());
    const auto after = seqs(store.list());
    // retain=1 keeps only the newest (torn) file — but generation 1, the
    // newest that verifies, must have been spared.
    EXPECT_EQ(after, (std::vector<std::uint64_t>{1, 4}));
    const auto bytes = read_file_bytes(store.list().front().path);
    ASSERT_TRUE(bytes.is_ok());
    EXPECT_TRUE(verify_checkpoint_image(bytes.value(), "kept").is_ok());
}

TEST(DurableStoreTest, CrashPointsLeaveExactlyTheExpectedRemains) {
    using fault::CrashPoint;
    const auto& img = synthetic_image();

    const auto run = [&](CrashPoint point, std::uint64_t arg) {
        testutil::ScopedTempDir tmp{"p4lru_store"};
        DurableStore store(tmp.file("store"), {.retain = 2, .sync = false});
        EXPECT_TRUE(store.install(img).is_ok());  // gen 1: prior state
        const fault::CrashEvent crash{0, point, arg};
        const auto out = store.install_with_crash(img, &crash);
        EXPECT_TRUE(out.is_ok()) << out.status().to_string();
        EXPECT_TRUE(out.value().crashed);
        std::size_t tmp_files = 0;
        for (const auto& e : fs::directory_iterator(store.dir())) {
            if (e.path().string().ends_with(".tmp")) ++tmp_files;
        }
        struct Remains {
            std::vector<std::uint64_t> gens;
            std::size_t tmp_files;
            bool installed;
        };
        return Remains{seqs(store.list()), tmp_files,
                       out.value().installed};
    };

    {  // Nothing written at all.
        const auto r = run(CrashPoint::kBeforeWrite, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_FALSE(r.installed);
    }
    {  // Torn temp: invisible to list(), temp remains on disk.
        const auto r = run(CrashPoint::kTornTemp, 1);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 1u);
        EXPECT_FALSE(r.installed);
    }
    {  // Torn install: a damaged file AT the final name — listed, but it
       // must fail verification (the recovery ladder will skip it).
        const auto r = run(CrashPoint::kTornInstall, 2);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_FALSE(r.installed);
        testutil::ScopedTempDir probe{"p4lru_store"};
        DurableStore store(probe.file("s"), {.retain = 2, .sync = false});
        ASSERT_TRUE(store.install(img).is_ok());
        const fault::CrashEvent crash{0, CrashPoint::kTornInstall, 2};
        const auto out = store.install_with_crash(img, &crash);
        ASSERT_TRUE(out.is_ok());
        const auto bytes = read_file_bytes(store.list().back().path);
        ASSERT_TRUE(bytes.is_ok());
        EXPECT_FALSE(
            verify_checkpoint_image(bytes.value(), "torn").is_ok());
    }
    {  // Crash between the synced temp and the rename: no new generation.
        const auto r = run(CrashPoint::kBeforeRename, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 1u);
        EXPECT_FALSE(r.installed);
    }
    {  // Crash after the install: generation landed, prune did not run.
        const auto r = run(CrashPoint::kAfterInstall, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_TRUE(r.installed);
    }
    {  // Crash between epochs: a complete, pruned install.
        const auto r = run(CrashPoint::kBetweenEpochs, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_TRUE(r.installed);
    }
}

TEST(DurableStoreTest, RecoveryLadderSkipsDamageDownToNewestValid) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    const auto want = sample_checkpoint();

    // gens 1..2 valid; gen 3 torn at a section boundary; gen 4 bit-flipped.
    ASSERT_TRUE(store.install(synthetic_image()).is_ok());
    ASSERT_TRUE(store.install(synthetic_image()).is_ok());
    const fault::CrashEvent torn{0, fault::CrashPoint::kTornInstall, 2};
    ASSERT_TRUE(store.install_with_crash(synthetic_image(), &torn).is_ok());
    {
        const SerializedCheckpoint& good = synthetic_image();
        std::vector<std::byte> bytes = good.image.flatten();
        bytes[good.section_ends[1] + 7] ^= std::byte{0x10};
        const SerializedCheckpoint flipped{io::GatherImage(std::move(bytes)),
                                           good.section_ends};
        ASSERT_TRUE(store.install(flipped).is_ok());
    }
    ASSERT_EQ(store.list().size(), 4u);

    const auto rec = store.recover_newest(
        [](const std::vector<std::byte>& image, const std::string& origin) {
            return parse_target_checkpoint<ReplayStats>(image, origin);
        });
    ASSERT_TRUE(rec.found) << "ladder must land on generation 2";
    EXPECT_EQ(rec.gen.seq, 2u);
    ASSERT_EQ(rec.rejected.size(), 2u) << "both damaged gens recorded";
    EXPECT_EQ(rec.rejected[0].seq, 4u);  // newest first
    EXPECT_EQ(rec.rejected[1].seq, 3u);
    for (const auto& r : rec.rejected) {
        EXPECT_FALSE(r.status.is_ok());
        EXPECT_TRUE(r.status.code() == ErrorCode::kCorrupt ||
                    r.status.code() == ErrorCode::kTruncated)
            << r.status.to_string();
    }
    // The recovered checkpoint is bit-identical to what was installed.
    EXPECT_EQ(rec.checkpoint.cursor, want.cursor);
    EXPECT_EQ(rec.checkpoint.stats, want.stats);
    EXPECT_EQ(rec.checkpoint.shard_stats, want.shard_stats);
    EXPECT_EQ(rec.checkpoint.state, want.state);
}

TEST(DurableStoreTest, EmptyStoreIsAColdStartNotAnError) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    const DurableStore store(tmp.file("never_created"));
    const auto rec = store.recover_newest(
        [](const std::vector<std::byte>& image, const std::string& origin) {
            return parse_target_checkpoint<ReplayStats>(image, origin);
        });
    EXPECT_FALSE(rec.found);
    EXPECT_TRUE(rec.rejected.empty());
}

TEST(DurableStoreTest, IoFailuresCarryPathAndErrno) {
    const auto rd = read_file_bytes("/nonexistent/dir/gen-000001.ckpt");
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kIoError);
    EXPECT_NE(rd.status().message().find("/nonexistent/dir"),
              std::string::npos);
    EXPECT_NE(rd.status().message().find("errno"), std::string::npos);

    const auto wr = atomic_write_file("/nonexistent/dir/x.ckpt",
                                      synthetic_image().image, /*sync=*/false);
    ASSERT_FALSE(wr.is_ok());
    EXPECT_EQ(wr.code(), ErrorCode::kIoError);
    EXPECT_NE(wr.message().find("errno"), std::string::npos);
}

TEST(DurableStoreTest, ReadFileBytesRejectsNonRegularFileWithPath) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    const auto rd = read_file_bytes(tmp.path());  // a directory
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kIoError);
    EXPECT_NE(rd.status().message().find(tmp.path()), std::string::npos)
        << rd.status().to_string();
    // The typed file reader goes through the same path.
    const auto cp = read_target_checkpoint_checked<ReplayStats>(tmp.path());
    ASSERT_FALSE(cp.is_ok());
    EXPECT_EQ(cp.status().code(), ErrorCode::kIoError);
}

TEST(DurableStoreTest, FrameReportsSectionsAndRejectsLegacyFiles) {
    {
        const std::vector<std::byte> bytes = cache_image().image.flatten();
        const auto frame = parse_checkpoint_frame(bytes, "cache");
        ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
        EXPECT_TRUE(frame.value().seal.is_ok());
        EXPECT_EQ(frame.value().record_bytes, sizeof(ReplayStats));
        for (const auto& s : frame.value().sections) EXPECT_TRUE(s.ok());
    }
    {
        const std::vector<std::byte> bytes =
            synthetic_image().image.flatten();
        const auto frame = parse_checkpoint_frame(bytes, "synthetic");
        ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
        const auto want = sample_checkpoint();
        EXPECT_EQ(frame.value().header.cursor, want.cursor);
        EXPECT_EQ(frame.value().header.state_id, want.state_id);
        EXPECT_EQ(frame.value().header.scrub, want.scrub);
        EXPECT_EQ(frame.value().shard_count, 2u);
        EXPECT_EQ(frame.value().state.size(), want.state.size());
        EXPECT_TRUE(frame.value().seal.is_ok());
    }
    {
        // A damaged state byte: the header still frames (an inspector can
        // show it), the state section is the one that mismatches, and the
        // seal verdict names it.
        std::vector<std::byte> dam = synthetic_image().image.flatten();
        const std::uint64_t state_begin = synthetic_image().section_ends[1];
        dam[state_begin + 5] ^= std::byte{0x01};
        const auto frame = parse_checkpoint_frame(dam, "damaged");
        ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
        EXPECT_EQ(frame.value().header.cursor, sample_checkpoint().cursor);
        EXPECT_FALSE(frame.value().sections[2].ok());
        EXPECT_TRUE(frame.value().sections[0].ok());
        ASSERT_FALSE(frame.value().seal.is_ok());
        EXPECT_EQ(frame.value().seal.offset(), state_begin);
    }
    {
        // A v1 file: same image without the seal, version patched to 1.
        std::vector<std::byte> legacy = synthetic_image().image.flatten();
        legacy.resize(legacy.size() - 16);
        legacy[8] = std::byte{1};
        const auto frame = parse_checkpoint_frame(legacy, "legacy");
        ASSERT_FALSE(frame.is_ok());
        EXPECT_EQ(frame.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(frame.status().offset(), 8u);
        EXPECT_FALSE(verify_checkpoint_image(legacy, "v1").is_ok());
        EXPECT_FALSE(typed_parse(legacy).is_ok());
    }
}

}  // namespace
}  // namespace p4lru::replay
