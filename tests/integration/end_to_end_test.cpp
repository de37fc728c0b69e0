// Cross-module integration: one shared synthetic trace drives all three
// systems, checking the paper's headline claims jointly plus cross-layer
// invariants (pipeline program == behavioural cache inside a running
// LruTable; analyzer totals reconcile with the generator's ground truth).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru_encoded.hpp"
#include "p4lru/pipeline/p4lru3_program.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru {
namespace {

class EndToEnd : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        trace::TraceConfig tc;
        tc.total_packets = 150'000;
        tc.segments = 30;
        tc.seed = 99;
        trace_ = new std::vector<PacketRecord>(trace::generate_trace(tc));
    }
    static void TearDownTestSuite() {
        delete trace_;
        trace_ = nullptr;
    }
    static std::vector<PacketRecord>* trace_;
};

std::vector<PacketRecord>* EndToEnd::trace_ = nullptr;

TEST_F(EndToEnd, HeadlineClaimAcrossAllThreeSystems) {
    // LruTable: P4LRU3 beats the baseline on miss rate.
    const auto table_miss = [&](auto make_policy) {
        systems::lrutable::LruTableConfig cfg;
        cfg.slow_path_delay = 40 * kMicrosecond;
        systems::lrutable::LruTableTarget sys(
            1, [&](std::size_t) { return make_policy(); }, cfg);
        replay::SpanOpSource source(*trace_);
        return sys
            .report(replay::replay_target_sequential_stream(sys, source)
                        .value())
            .miss_rate;
    };
    const double t3 = table_miss([] {
        return std::make_unique<cache::P4lruArrayPolicy<
            systems::lrutable::VirtualAddress, std::uint32_t, 3>>(1'536,
                                                                  0x77);
    });
    const double t1 = table_miss([] {
        return std::make_unique<cache::P4lruArrayPolicy<
            systems::lrutable::VirtualAddress, std::uint32_t, 1>>(1'536,
                                                                  0x77);
    });
    EXPECT_LT(t3, t1);

    // LruMon: P4LRU3 uploads less at identical (exact) accuracy.
    const auto mon_run = [&](auto make_policy) {
        systems::lrumon::FilterConfig fcfg;
        fcfg.tower_width1 = 1u << 15;
        fcfg.tower_width2 = 1u << 14;
        systems::lrumon::LruMonConfig cfg;
        cfg.threshold = 1500;
        systems::lrumon::LruMonTarget sys(
            1,
            [&](std::size_t) {
                return systems::lrumon::make_filter(
                systems::lrumon::FilterKind::kTower, fcfg);
            },
            [&](std::size_t) { return make_policy(); }, cfg);
        replay::SpanOpSource source(*trace_);
        return sys.report(
            replay::replay_target_sequential_stream(sys, source).value());
    };
    const auto m3 = mon_run([] {
        return std::make_unique<cache::P4lruArrayPolicy<
            std::uint32_t, systems::lrumon::FlowLen, 3, core::AddMerge>>(
            384, 0x78);
    });
    const auto m1 = mon_run([] {
        return std::make_unique<cache::P4lruArrayPolicy<
            std::uint32_t, systems::lrumon::FlowLen, 1, core::AddMerge>>(
            384, 0x78);
    });
    EXPECT_LT(m3.uploads, m1.uploads);
    EXPECT_EQ(m3.overestimated_flows, 0u);
    EXPECT_EQ(m1.overestimated_flows, 0u);
    // Measurement error comes only from the filter, which both share.
    EXPECT_NEAR(m3.total_error_rate, m1.total_error_rate, 1e-9);
}

TEST_F(EndToEnd, PipelineProgramInsideLruTableMatchesBehavioural) {
    // Drive the actual pipeline-compiled cache and the behavioural policy
    // with the same virtual addresses; hit decisions must agree packet for
    // packet (read-cache mode, no slow-path model here).
    pipeline::P4lru3PipelineCache pipe(256, 0x5A,
                                       pipeline::ValueMode::kReadCache);
    core::ParallelCache<core::P4lru3Encoded<std::uint32_t, std::uint32_t>,
                        std::uint32_t, std::uint32_t>
        beh(256, 0x5A);
    std::size_t packets = 0;
    for (const auto& p : *trace_) {
        if (++packets > 30'000) break;
        const std::uint32_t va = p.flow.dst_ip;
        if (va == 0) continue;
        const auto a = pipe.update(va, 1);
        const auto b = beh.update(va, 1, core::KeepMerge{});
        ASSERT_EQ(a.hit, b.hit) << "packet " << packets;
    }
}

TEST_F(EndToEnd, LruMonMeasurementReconcilesWithGroundTruth) {
    std::unordered_map<FlowKey, std::uint64_t> truth;
    for (const auto& p : *trace_) truth[p.flow] += p.len;

    systems::lrumon::FilterConfig fcfg;
    fcfg.tower_width1 = 1u << 15;
    fcfg.tower_width2 = 1u << 14;
    systems::lrumon::LruMonConfig cfg;
    cfg.threshold = 1000;
    systems::lrumon::LruMonTarget sys(
        1,
        [&](std::size_t) {
            return systems::lrumon::make_filter(
                systems::lrumon::FilterKind::kTower, fcfg);
        },
        [](std::size_t) {
            return std::make_unique<cache::P4lruArrayPolicy<
                std::uint32_t, systems::lrumon::FlowLen, 3, core::AddMerge>>(
                3'000, 0x79);
        },
        cfg);
    replay::SpanOpSource source(*trace_);
    const auto r = sys.report(
        replay::replay_target_sequential_stream(sys, source).value());

    std::uint64_t total = 0;
    for (const auto& [flow, bytes] : truth) total += bytes;
    EXPECT_EQ(r.total_bytes, total);
    // measured <= truth per flow, and aggregates reconcile.
    EXPECT_LE(r.measured_bytes, r.total_bytes);
    EXPECT_DOUBLE_EQ(
        r.total_error_rate,
        static_cast<double>(r.total_bytes - r.measured_bytes) /
            static_cast<double>(r.total_bytes));
}

TEST_F(EndToEnd, LruIndexServesBitExactRecordsUnderCaching) {
    systems::lruindex::DbServer server(20'000,
                                       systems::lruindex::ServerCosts{});
    systems::lruindex::SeriesIndexCache cache(4, 256, 0x7B);
    systems::lruindex::DriverConfig cfg;
    cfg.threads = 4;
    cfg.queries = 20'000;
    cfg.workload.items = 20'000;
    const auto r = run_driver(cfg, server, cache);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_EQ(r.queries, 20'000u);
}

}  // namespace
}  // namespace p4lru
