// Streaming trace-source contract tests (trace_source.hpp): MmapSource
// must yield the same record stream as the in-memory VectorSource under any
// batch size and across its mapping-window slides, reject every damaged
// file with a typed error instead of crashing, seek like a file, and count
// the bytes it decodes.
#include "p4lru/trace/trace_source.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "../checkpoint_util.hpp"
#include "../test_util.hpp"

namespace p4lru::trace {
namespace {

std::vector<PacketRecord> small_trace(std::size_t packets,
                                      std::uint64_t seed = 7) {
    // generate_trace may overshoot by one packet per segment (a flow's last
    // burst can cross the quota); one segment + truncation makes the count
    // exact, which the contract assertions below depend on.
    TraceConfig cfg;
    cfg.total_packets = packets;
    cfg.segments = 1;
    cfg.seed = seed;
    auto out = generate_trace(cfg);
    if (out.size() > packets) out.resize(packets);
    return out;
}

/// Drain a source with a fixed batch size and return every record.
std::vector<PacketRecord> drain(TraceSource& src, std::size_t batch) {
    std::vector<PacketRecord> out;
    for (;;) {
        auto b = src.next_batch(batch);
        if (!b.is_ok()) {
            ADD_FAILURE() << src.name() << ": " << b.status().to_string();
            return out;
        }
        if (b.value().empty()) break;
        out.insert(out.end(), b.value().begin(), b.value().end());
    }
    return out;
}

class TraceSourceTest : public ::testing::Test {
  protected:
    void SetUp() override { path_ = dir_.file("trace.bin"); }
    testutil::ScopedTempDir dir_{"p4lru_trace_source"};
    std::string path_;
};

TEST_F(TraceSourceTest, VectorSourceHonorsTheBatchContract) {
    const auto trace = small_trace(100);
    VectorSource src(trace);
    EXPECT_EQ(src.size(), 100u);
    EXPECT_EQ(src.tell(), 0u);
    auto b = src.next_batch(33);
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(b.value().size(), 33u);  // exactly min(max, remaining)
    EXPECT_EQ(src.tell(), 33u);
    ASSERT_TRUE(src.seek(90).is_ok());
    b = src.next_batch(33);
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(b.value().size(), 10u);  // clipped at end of stream
    b = src.next_batch(33);
    ASSERT_TRUE(b.is_ok());
    EXPECT_TRUE(b.value().empty());  // EOF is an empty span, not an error
    EXPECT_EQ(src.seek(101).code(), ErrorCode::kInvalidArgument);
}

TEST_F(TraceSourceTest, AllSourcesYieldIdenticalRecords) {
    const auto trace = small_trace(10'000);
    write_trace(path_, trace);

    // Odd batch sizes never divide the trace: the last batch is short.
    for (const std::size_t batch : {1ul, 7ul, 97ul, 257ul, 1000ul, 4096ul}) {
        VectorSource vec(trace);
        auto from_vec = drain(vec, batch);
        ASSERT_EQ(from_vec.size(), trace.size());

        auto mm = MmapSource::open(path_);
        ASSERT_TRUE(mm.is_ok()) << mm.status().to_string();
        auto from_mmap = drain(*mm.value(), batch);

        ASSERT_EQ(from_mmap.size(), trace.size()) << "batch " << batch;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            ASSERT_EQ(from_vec[i], trace[i]) << "vector record " << i;
            ASSERT_EQ(from_mmap[i], trace[i])
                << "mmap record " << i << " batch " << batch;
        }
    }
}

TEST_F(TraceSourceTest, EmptyTraceIsImmediateEof) {
    write_trace(path_, {});
    auto mm = MmapSource::open(path_);
    ASSERT_TRUE(mm.is_ok()) << mm.status().to_string();
    EXPECT_EQ(mm.value()->size(), 0u);
    auto b = mm.value()->next_batch(64);
    ASSERT_TRUE(b.is_ok());
    EXPECT_TRUE(b.value().empty());
}

/// Both file entry points — the streaming open and the whole-file reader
/// that drains it — report a missing file as an I/O error.
TEST_F(TraceSourceTest, MissingFileIsIoErrorForBothSources) {
    const std::string missing = dir_.file("nope.bin");
    EXPECT_EQ(MmapSource::open(missing).status().code(),
              ErrorCode::kIoError);
    EXPECT_EQ(read_trace_checked(missing).status().code(),
              ErrorCode::kIoError);
}

/// Truncation sweep (the whole-file reader's hardening, applied to the
/// streaming opens): every strict prefix of a valid trace file must be
/// rejected at open with a typed error — never parsed, never crash.
TEST_F(TraceSourceTest, OpenRejectsEveryTruncationPrefix) {
    const auto trace = small_trace(8);  // 20 + 8*28 = 244 bytes
    write_trace(path_, trace);
    const auto full = std::filesystem::file_size(path_);
    for (std::uintmax_t cut = 0; cut < full; ++cut) {
        write_trace(path_, trace);
        std::filesystem::resize_file(path_, cut);

        auto mm = MmapSource::open(path_);
        ASSERT_FALSE(mm.is_ok()) << "mmap parsed a prefix of " << cut;
        auto mc = mm.status().code();
        EXPECT_TRUE(mc == ErrorCode::kCorrupt || mc == ErrorCode::kTruncated)
            << "mmap prefix " << cut << ": " << mm.status().to_string();
    }
}

TEST_F(TraceSourceTest, MmapShrinkUnderReaderIsStickyTruncatedUntilSeek) {
    const auto trace = small_trace(1'000);
    write_trace(path_, trace);
    auto mm = MmapSource::open(path_);
    ASSERT_TRUE(mm.is_ok()) << mm.status().to_string();
    MmapSource& src = *mm.value();

    auto b = src.next_batch(100);
    ASSERT_TRUE(b.is_ok());
    ASSERT_EQ(b.value().size(), 100u);

    // The file shrinks under the open mapping: the next decode that would
    // touch vanished bytes must be a typed error, not a SIGBUS.
    std::filesystem::resize_file(
        path_, kTraceHeaderBytes + 500 * kTraceRecordBytes);
    ASSERT_TRUE(src.seek(450).is_ok());
    b = src.next_batch(100);  // records 450..549: 500+ are gone
    ASSERT_FALSE(b.is_ok());
    EXPECT_EQ(b.status().code(), ErrorCode::kTruncated);
    // Sticky: the error repeats without progress...
    EXPECT_EQ(src.next_batch(1).status().code(), ErrorCode::kTruncated);
    // ...until a seek clears it; surviving records stay readable.
    ASSERT_TRUE(src.seek(0).is_ok());
    b = src.next_batch(100);
    ASSERT_TRUE(b.is_ok()) << b.status().to_string();
    ASSERT_EQ(b.value().size(), 100u);
    for (std::size_t i = 0; i < 100; ++i) {
        ASSERT_EQ(b.value()[i], trace[i]) << "record " << i;
    }
}

TEST_F(TraceSourceTest, SeekRepositionsBothFileSources) {
    const auto trace = small_trace(2'000);
    write_trace(path_, trace);
    VectorSource vec(trace);
    auto mm = MmapSource::open(path_);
    ASSERT_TRUE(mm.is_ok());

    for (TraceSource* src : {static_cast<TraceSource*>(&vec),
                             static_cast<TraceSource*>(mm.value().get())}) {
        // Forward past the read position, then backward behind it.
        for (const std::uint64_t at : {1'500ull, 3ull, 1'999ull, 0ull}) {
            ASSERT_TRUE(src->seek(at).is_ok()) << src->name();
            EXPECT_EQ(src->tell(), at);
            auto b = src->next_batch(5);
            ASSERT_TRUE(b.is_ok()) << src->name();
            const std::size_t want =
                std::min<std::size_t>(5, 2'000 - static_cast<std::size_t>(at));
            ASSERT_EQ(b.value().size(), want) << src->name() << " @" << at;
            for (std::size_t i = 0; i < want; ++i) {
                ASSERT_EQ(b.value()[i], trace[at + i])
                    << src->name() << " record " << at + i;
            }
        }
        // seek(size) is EOF, one past is out of contract.
        ASSERT_TRUE(src->seek(2'000).is_ok());
        auto b = src->next_batch(5);
        ASSERT_TRUE(b.is_ok());
        EXPECT_TRUE(b.value().empty());
        EXPECT_EQ(src->seek(2'001).code(), ErrorCode::kInvalidArgument);
    }
}

TEST_F(TraceSourceTest, ObsCountersTrackReaderHealth) {
    const auto trace = small_trace(1'000);
    write_trace(path_, trace);
    obs::Registry reg;
    MmapSourceOptions mopts;
    mopts.metrics = &reg;
    auto mm = MmapSource::open(path_, mopts);
    ASSERT_TRUE(mm.is_ok());
    (void)drain(*mm.value(), 256);
    EXPECT_EQ(reg.counter("trace_bytes_read")->value(),
              1'000u * kTraceRecordBytes);
    // A re-read after a seek is counted again: the counter prices decode
    // work, not distinct file bytes.
    ASSERT_TRUE(mm.value()->seek(900).is_ok());
    (void)drain(*mm.value(), 256);
    EXPECT_EQ(reg.counter("trace_bytes_read")->value(),
              1'100u * kTraceRecordBytes);
}

/// A trace just over one mapping window: batches cross the window's end and
/// make MmapSource remap, a seek back lands in the first window again, and
/// a shrink that cuts the second window is still a typed, sticky error.
TEST_F(TraceSourceTest, MmapWindowSlideMatchesVectorSource) {
    const std::size_t window_records = kMmapWindowBytes / kTraceRecordBytes;
    const std::size_t records = window_records + 60'000;
    // Synthetic records over 4,096 flows, so the cache replay below hits as
    // well as misses.
    std::vector<PacketRecord> trace(records);
    for (std::size_t i = 0; i < records; ++i) {
        trace[i].ts = i * 1'000;
        trace[i].flow.src_ip = static_cast<std::uint32_t>(
            ((i * 0x9E37'79B9'7F4A'7C15ull) >> 40) % 4'096);
        trace[i].flow.dst_ip = 7;
        trace[i].flow.proto = 6;
        trace[i].len = static_cast<std::uint32_t>(64 + i % 1'400);
    }
    write_trace(path_, trace);
    ASSERT_GT(std::filesystem::file_size(path_), kMmapWindowBytes);

    auto mm = MmapSource::open(path_);
    ASSERT_TRUE(mm.is_ok()) << mm.status().to_string();
    MmapSource& src = *mm.value();

    // Every record, read in batches that straddle the window boundary,
    // equals the in-memory oracle's.
    VectorSource vec(trace);
    const auto want = drain(vec, 4'099);
    const auto got = drain(src, 4'099);
    ASSERT_EQ(got.size(), records);
    for (std::size_t i = 0; i < records; ++i) {
        ASSERT_EQ(got[i], want[i]) << "record " << i;
    }

    // Back into the first window after reading the second, then across the
    // boundary again from just before it.
    for (const std::uint64_t at : {std::uint64_t{0}, std::uint64_t{17},
                                   std::uint64_t{window_records - 3}}) {
        ASSERT_TRUE(src.seek(at).is_ok());
        auto b = src.next_batch(10);
        ASSERT_TRUE(b.is_ok()) << b.status().to_string();
        ASSERT_EQ(b.value().size(), 10u);
        for (std::size_t i = 0; i < 10; ++i) {
            ASSERT_EQ(b.value()[i], trace[at + i]) << "record " << at + i;
        }
    }

    // A threaded replay whose batches cross the window boundary lands on
    // the sequential replay's statistics and plane bytes.
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;
    ASSERT_TRUE(vec.seek(0).is_ok());
    auto seq_stream = replay::packet_op_source(vec);
    Cache seq_cache(1'024, 0x7A);
    replay::CacheReplayTarget seq_target(seq_cache);
    const auto seq =
        replay::replay_target_sequential_stream(seq_target, seq_stream);
    ASSERT_TRUE(seq.is_ok()) << seq.status().to_string();

    ASSERT_TRUE(src.seek(0).is_ok());
    auto thr_stream = replay::packet_op_source(src);
    Cache thr_cache(1'024, 0x7A);
    replay::CacheReplayTarget thr_target(thr_cache);
    replay::ShardedConfig cfg;
    cfg.shards = 3;
    cfg.batch_ops = 1'000;
    cfg.mode = replay::Mode::kThreaded;
    const auto thr =
        replay::replay_target_sharded_stream(thr_target, thr_stream, cfg);
    ASSERT_TRUE(thr.is_ok()) << thr.status().to_string();
    EXPECT_EQ(thr.value().stats, seq.value());
    EXPECT_GT(seq.value().hits, 0u);
    EXPECT_EQ(testutil::plane_bytes(thr_cache.storage()),
              testutil::plane_bytes(seq_cache.storage()));

    // The file shrinks to a cut inside the second window: a batch that
    // reaches past it is kTruncated, and stays so until a seek.
    const std::uint64_t cut = window_records + 30'000;
    std::filesystem::resize_file(path_,
                                 kTraceHeaderBytes + cut * kTraceRecordBytes);
    ASSERT_TRUE(src.seek(cut - 100).is_ok());
    auto b = src.next_batch(1'000);
    ASSERT_FALSE(b.is_ok());
    EXPECT_EQ(b.status().code(), ErrorCode::kTruncated);
    EXPECT_EQ(src.next_batch(1).status().code(), ErrorCode::kTruncated);
    ASSERT_TRUE(src.seek(cut - 100).is_ok());
    b = src.next_batch(100);
    ASSERT_TRUE(b.is_ok()) << b.status().to_string();
    EXPECT_EQ(b.value()[99], trace[cut - 1]);
}

}  // namespace
}  // namespace p4lru::trace
