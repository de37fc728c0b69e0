// The gather image and its writer (common/byte_io.hpp, durable_store.hpp).
//
// A sealed checkpoint is written from its parts where they live: one writev
// loop over at most IOV_MAX parts per call that resumes a short count in
// the middle of a part.  These tests drive that loop through a scripted
// writev — short counts of every size, EINTR, a stalled and a failing
// call — and through the real file path with more parts than IOV_MAX, and
// pin the GatherImage operations the seal and the torn-crash injector use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/replay/durable_store.hpp"

#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using Parts = std::span<const std::span<const std::byte>>;

/// `parts` parts of 1..37 bytes: every third one owned (written through a
/// ByteWriter), the rest borrowed from `pool`.
io::GatherImage many_parts(std::size_t parts,
                           const std::vector<std::byte>& pool) {
    io::GatherImage g;
    std::mt19937 rng(static_cast<unsigned>(parts));
    for (std::size_t i = 0; i < parts; ++i) {
        const std::size_t len = 1 + rng() % 37;
        if (i % 3 == 0) {
            io::ByteWriter w = g.writer();
            for (std::size_t b = 0; b < len; ++b) {
                w.u8(static_cast<std::uint8_t>(i + b));
            }
            g.borrow(std::span<const std::byte>());  // ignored: empty
            continue;
        }
        g.borrow(std::span(pool).subspan(rng() % (pool.size() - len), len));
    }
    return g;
}

std::vector<std::byte> pool_bytes() {
    std::vector<std::byte> pool(4096);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        pool[i] = static_cast<std::byte>(i * 131 + 7);
    }
    return pool;
}

TEST(DurableGatherWrite, ShortWritesResumeMidPart) {
    const auto pool = pool_bytes();
    const io::GatherImage image =
        many_parts(2 * detail::kMaxGatherParts + 11, pool);
    const std::vector<std::byte> want = image.flatten();
    for (const std::size_t cap : {1, 5, 16, 37, 1000, 1 << 20}) {
        std::vector<std::byte> got;
        std::size_t calls = 0;
        const auto status = detail::write_gather(
            image,
            [&](Parts parts) -> long {
                EXPECT_LE(parts.size(), detail::kMaxGatherParts);
                if (++calls == 2) {  // one interrupted call, retried
                    errno = EINTR;
                    return -1;
                }
                std::size_t n = 0;
                for (const auto p : parts) {
                    for (const std::byte b : p) {
                        if (n == cap) return static_cast<long>(n);
                        got.push_back(b);
                        ++n;
                    }
                }
                return static_cast<long>(n);
            },
            "scripted");
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        EXPECT_EQ(got, want) << "cap " << cap;
    }
}

TEST(DurableGatherWrite, StalledOrFailedCallIsAnIoError) {
    const auto pool = pool_bytes();
    const io::GatherImage image = many_parts(10, pool);
    const auto stalled = detail::write_gather(
        image, [](Parts) -> long { return 0; }, "stalled-path");
    ASSERT_FALSE(stalled.is_ok());
    EXPECT_EQ(stalled.code(), ErrorCode::kIoError);
    EXPECT_NE(stalled.message().find("stalled-path"), std::string::npos);
    const auto failed = detail::write_gather(
        image,
        [](Parts) -> long {
            errno = ENOSPC;
            return -1;
        },
        "full-disk");
    ASSERT_FALSE(failed.is_ok());
    EXPECT_EQ(failed.code(), ErrorCode::kIoError);
    EXPECT_NE(failed.message().find("full-disk"), std::string::npos);
}

TEST(DurableGatherWrite, MorePartsThanIovMaxReadBackByteIdentical) {
    testutil::ScopedTempDir tmp{"p4lru_gather"};
    const auto pool = pool_bytes();
    const io::GatherImage image =
        many_parts(3 * detail::kMaxGatherParts + 5, pool);
    ASSERT_GT(image.part_count(), detail::kMaxGatherParts);
    const std::string path = tmp.file("parts.bin");
    ASSERT_TRUE(atomic_write_file(path, image, /*sync=*/false).is_ok());
    const auto back = read_file_bytes(path);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), image.flatten());
}

TEST(GatherImage, PartsConcatenateAndMovesKeepThemValid) {
    const auto pool = pool_bytes();
    io::GatherImage a;
    a.writer().u32(0x04030201u);
    a.borrow(std::span(pool).first(3));
    a.writer().u8(9);
    a.own({std::byte{7}, std::byte{8}});
    EXPECT_EQ(a.part_count(), 4u);
    EXPECT_EQ(a.size(), 4u + 3u + 1u + 2u);
    const std::vector<std::byte> want = {
        std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
        pool[0],      pool[1],      pool[2],      std::byte{9},
        std::byte{7}, std::byte{8}};
    EXPECT_EQ(a.flatten(), want);

    // Appending moves the owned parts along; the source is left empty.
    io::GatherImage b(std::vector<std::byte>{std::byte{0xAA}});
    b.append(std::move(a));
    EXPECT_EQ(a.part_count(), 0u);  // NOLINT(bugprone-use-after-move)
    io::GatherImage moved = std::move(b);
    std::vector<std::byte> with_head = {std::byte{0xAA}};
    with_head.insert(with_head.end(), want.begin(), want.end());
    EXPECT_EQ(moved.flatten(), with_head);

    // A borrowed view shares every part; a prefix cuts inside one.
    io::GatherImage view;
    view.borrow(moved);
    EXPECT_EQ(view.flatten(), with_head);
    for (std::size_t n = 0; n <= with_head.size() + 1; ++n) {
        const auto cut = moved.prefix(n);
        const std::size_t len = std::min(n, with_head.size());
        EXPECT_EQ(cut.flatten(),
                  std::vector<std::byte>(with_head.begin(),
                                         with_head.begin() + len));
    }
}

}  // namespace
}  // namespace p4lru::replay
