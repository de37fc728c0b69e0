#include "p4lru/systems/lrumon/analyzer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "../test_util.hpp"
#include "p4lru/systems/lrumon/tower_filter.hpp"

namespace p4lru::systems::lrumon {
namespace {

using testutil::make_flow;

TEST(Analyzer, RegistersFlowOnFirstUpload) {
    Analyzer a;
    a.on_upload(make_flow(1), 111, 0, 0);
    EXPECT_EQ(a.uploads(), 1u);
    EXPECT_EQ(a.known_flows(), 1u);
    EXPECT_EQ(a.measured_bytes(make_flow(1)), 0u);  // T_len starts at 0
}

TEST(Analyzer, EvictedFingerprintCreditsItsFlow) {
    Analyzer a;
    a.on_upload(make_flow(1), 111, 0, 0);       // flow 1 registered, fp 111
    a.on_upload(make_flow(2), 222, 111, 5000);  // flow 1's bytes come home
    EXPECT_EQ(a.measured_bytes(make_flow(1)), 5000u);
    EXPECT_EQ(a.measured_bytes(make_flow(2)), 0u);
    EXPECT_EQ(a.unmatched(), 0u);
}

TEST(Analyzer, UnknownFingerprintCountsAsUnmatched) {
    Analyzer a;
    a.on_upload(make_flow(1), 111, 999, 1234);  // 999 was never registered
    EXPECT_EQ(a.unmatched(), 1u);
}

TEST(Analyzer, FlushCreditsResidualEntries) {
    Analyzer a;
    a.on_upload(make_flow(1), 111, 0, 0);
    a.on_flush(111, 700);
    EXPECT_EQ(a.measured_bytes(make_flow(1)), 700u);
}

TEST(Analyzer, RepeatUploadsAccumulate) {
    Analyzer a;
    a.on_upload(make_flow(1), 111, 0, 0);
    a.on_upload(make_flow(2), 222, 111, 100);
    a.on_upload(make_flow(1), 111, 222, 50);  // flow 1 re-enters; 2 credited
    a.on_upload(make_flow(3), 333, 111, 25);  // flow 1 credited again
    EXPECT_EQ(a.measured_bytes(make_flow(1)), 125u);
    EXPECT_EQ(a.measured_bytes(make_flow(2)), 50u);
    EXPECT_EQ(a.uploads(), 4u);
}

TEST(FilterWrappers, NamesAndMemory) {
    FilterConfig cfg;
    cfg.tower_width1 = 1u << 10;
    cfg.tower_width2 = 1u << 9;
    cfg.cm_width = 1u << 9;
    const auto tower = make_filter(FilterKind::kTower, cfg);
    const auto cm = make_filter(FilterKind::kCm, cfg);
    const auto cu = make_filter(FilterKind::kCu, cfg);
    EXPECT_EQ(tower->name(), "Tower");
    EXPECT_EQ(cm->name(), "CM");
    EXPECT_EQ(cu->name(), "CU");
    EXPECT_EQ(tower->memory_bytes(), (1024u * 8 + 512u * 16) / 8);
    EXPECT_GT(cm->memory_bytes(), 0u);
}

constexpr FilterKind kAllKinds[] = {FilterKind::kTower, FilterKind::kCm,
                                     FilterKind::kCu};

/// Small sketches: 1024 + 512 Tower counters, 2 x 512 CM/CU counters.
FilterConfig small_config() {
    FilterConfig cfg;
    cfg.reset_period = 10 * kMillisecond;
    cfg.tower_width1 = 1u << 10;
    cfg.tower_width2 = 1u << 9;
    cfg.cm_width = 1u << 9;
    return cfg;
}

TEST(FilterWrappers, WindowRollForgetsPreviousCounts) {
    for (const FilterKind kind : kAllKinds) {
        FlowFilter f(kind, small_config());
        EXPECT_EQ(f.add_and_estimate(7, 500, 0), 500u) << f.name();
        EXPECT_EQ(f.add_and_estimate(7, 500, kMillisecond), 1000u)
            << f.name();
        // New window: the counter restarts.
        EXPECT_EQ(f.add_and_estimate(7, 500, 11 * kMillisecond), 500u)
            << f.name();
        // Going further in time keeps rolling.
        EXPECT_EQ(f.add_and_estimate(7, 500, 35 * kMillisecond), 500u)
            << f.name();
    }
}

TEST(FilterWrappers, ZeroResetPeriodIsRejected) {
    FilterConfig cfg = small_config();
    cfg.reset_period = 0;
    for (const FilterKind kind : kAllKinds) {
        EXPECT_THROW(FlowFilter(kind, cfg), std::invalid_argument);
        EXPECT_THROW((void)make_filter(kind, cfg), std::invalid_argument);
    }
}

/// A filter restored from a mid-window snapshot keeps counting in that
/// window and rolls at the same boundary as the original.
TEST(FilterWrappers, SaveLoadResumesAcrossWindowBoundary) {
    for (const FilterKind kind : kAllKinds) {
        FlowFilter original(kind, small_config());
        for (std::uint32_t fp = 1; fp <= 200; ++fp) {
            original.add_and_estimate(fp, fp * 3, 12 * kMillisecond + fp);
        }
        std::vector<std::byte> image;
        io::ByteWriter w(image);
        original.save_state(w);

        FlowFilter restored(kind, small_config());
        io::ByteReader r(image);
        ASSERT_TRUE(restored.load_state(r)) << original.name();
        EXPECT_EQ(r.remaining(), 0u) << original.name();

        // Same window (10-20 ms): the snapshot's counts carry over; then
        // 20-30 ms and 40-50 ms start from zero on both.
        for (const TimeNs ts : {15 * kMillisecond, 25 * kMillisecond,
                                41 * kMillisecond}) {
            for (std::uint32_t fp = 1; fp <= 200; fp += 7) {
                EXPECT_EQ(restored.add_and_estimate(fp, 100, ts),
                          original.add_and_estimate(fp, 100, ts))
                    << original.name() << " fp " << fp << " ts " << ts;
            }
        }

        // A truncated image does not load.
        FlowFilter short_read(kind, small_config());
        io::ByteReader truncated(
            std::span<const std::byte>(image).first(image.size() / 2));
        EXPECT_FALSE(short_read.load_state(truncated)) << original.name();
    }
}

TEST(FilterWrappers, AllKindsAgreeWithoutCollisions) {
    FilterConfig cfg;
    cfg.tower_width1 = 1u << 14;
    cfg.tower_width2 = 1u << 13;
    cfg.cm_width = 1u << 13;
    const auto tower = make_filter(FilterKind::kTower, cfg);
    const auto cm = make_filter(FilterKind::kCm, cfg);
    const auto cu = make_filter(FilterKind::kCu, cfg);
    for (std::uint32_t fp = 1; fp <= 50; ++fp) {
        const auto t = tower->add_and_estimate(fp, fp * 10, 0);
        const auto c = cm->add_and_estimate(fp, fp * 10, 0);
        const auto u = cu->add_and_estimate(fp, fp * 10, 0);
        EXPECT_EQ(t, fp * 10) << fp;
        EXPECT_EQ(c, fp * 10) << fp;
        EXPECT_EQ(u, fp * 10) << fp;
    }
}

}  // namespace
}  // namespace p4lru::systems::lrumon
