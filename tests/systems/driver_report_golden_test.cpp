// DriverReport pinned field by field, doubles exactly: the closed-loop
// driver over the paper's series cache and over a Timeout policy (whose
// reply pass reads the event clock's `now`) at 8 threads, the Naive
// Solution, and the two flaky-server configurations of DriverRetry.  The
// values were captured from the driver that counted for itself, before it
// became a clock around QueryStep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "p4lru/cache/policy.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

namespace p4lru::systems::lruindex {
namespace {

struct GoldenReport {
    double throughput_ktps;
    double miss_rate;
    double avg_latency_us;
    std::uint64_t queries;
    std::uint64_t wrong_replies;
    std::uint64_t retries;
    std::uint64_t failed_queries;
};

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

void expect_report(const DriverReport& r, const GoldenReport& g) {
    EXPECT_EQ(r.throughput_ktps, g.throughput_ktps) << hex(r.throughput_ktps);
    EXPECT_EQ(r.miss_rate, g.miss_rate) << hex(r.miss_rate);
    EXPECT_EQ(r.avg_latency_us, g.avg_latency_us) << hex(r.avg_latency_us);
    EXPECT_EQ(r.queries, g.queries);
    EXPECT_EQ(r.wrong_replies, g.wrong_replies);
    EXPECT_EQ(r.retries, g.retries);
    EXPECT_EQ(r.failed_queries, g.failed_queries);
}

DriverConfig eight_threads() {
    DriverConfig cfg;
    cfg.threads = 8;
    cfg.queries = 20'000;
    cfg.workload.items = 20'000;
    cfg.workload.zipf_alpha = 0.9;
    cfg.workload.seed = 21;
    return cfg;
}

/// DriverRetry's base configuration.
DriverConfig retry_config() {
    DriverConfig cfg;
    cfg.threads = 4;
    cfg.queries = 8'000;
    cfg.workload.items = 10'000;
    cfg.workload.seed = 5;
    return cfg;
}

TEST(DriverReportGolden, SeriesIndexCacheEightThreads) {
    DbServer server(20'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    expect_report(run_driver(eight_threads(), server, cache),
                  {0x1.71821862e8579p+9, 0x1.91d14e3bcd35bp-2,
                   0x1.5a594af4f0d76p+3, 20'000, 0, 0, 0});
}

TEST(DriverReportGolden, TimeoutPolicyEightThreads) {
    DbServer server(20'000, ServerCosts{});
    PolicyIndexCache cache(
        std::make_unique<cache::TimeoutPolicy<DbKey, index::RecordAddress>>(
            3'072, 0xF1, 200 * kMicrosecond));
    expect_report(run_driver(eight_threads(), server, cache),
                  {0x1.67f9df2c281c3p+9, 0x1.cf9096bb98c7ep-2,
                   0x1.6383afb7e910dp+3, 20'000, 0, 0, 0});
}

TEST(DriverReportGolden, Naive) {
    DbServer server(20'000, ServerCosts{});
    NaiveIndexCache cache;
    expect_report(run_driver(eight_threads(), server, cache),
                  {0x1.283a283f40d65p+9, 0x1p+0, 0x1.b00ce703afb94p+3,
                   20'000, 0, 0, 0});
}

TEST(DriverReportGolden, TransientRefusals) {
    const fault::FlakyService flaky(11, 8, 2);
    DbServer server(10'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    auto cfg = retry_config();
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 4;
    expect_report(run_driver(cfg, server, cache),
                  {0x1.c78ee3ef903fp+7, 0x1.89374bc6a7efap-2,
                   0x1.18ce24dd2f1b8p+4, 8'000, 0, 1'816, 0});
}

TEST(DriverReportGolden, PersistentRefusals) {
    const fault::FlakyService flaky(13, 10, 5);
    DbServer server(10'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    auto cfg = retry_config();
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 3;
    expect_report(run_driver(cfg, server, cache),
                  {0x1.efed8f35c9d12p+7, 0x1.947ae147ae148p-2,
                   0x1.01bbd70a3d712p+4, 8'000, 0, 1'582, 791});
}

}  // namespace
}  // namespace p4lru::systems::lruindex
