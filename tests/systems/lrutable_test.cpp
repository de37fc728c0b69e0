// LruTable at one partition: the paper's NAT gateway (one cache, one
// pending-fill queue, global arrival order).  Per-packet cases step the
// target the way the engine does (route, then a one-element apply_batch)
// and read statistics deltas: a packet's added latency is the
// added_latency_ns delta.  The suite name is the paper system's.
#include "p4lru/systems/lrutable/lrutable_target.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "../checkpoint_util.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::systems::lrutable {
namespace {

using testutil::make_flow;
using Policy = LruTableTarget::Policy;

std::unique_ptr<Policy> p4lru3(std::size_t entries) {
    return std::make_unique<
        cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(entries,
                                                                   0xA);
}

LruTableTarget::PolicyFactory p4lru3_factory(std::size_t entries) {
    return [entries](std::size_t) { return p4lru3(entries); };
}

LruTableConfig quick_config() {
    LruTableConfig cfg;
    cfg.slow_path_delay = 10 * kMicrosecond;
    return cfg;
}

/// Route one packet, apply it as a one-element batch, and return the
/// latency it experienced (base + the added_latency_ns delta).
TimeNs step(LruTableTarget& nat, LruTableStats& s, const PacketRecord& pkt,
            const LruTableConfig& cfg = quick_config()) {
    const std::uint64_t before = s.added_latency_ns;
    const LruTableRouted r = nat.route(pkt);
    nat.apply_batch(std::span<const LruTableRouted>(&r, 1), s);
    return cfg.base_latency + (s.added_latency_ns - before);
}

LruTableReport replay_all(LruTableTarget& nat,
                          const std::vector<PacketRecord>& trace) {
    replay::SpanOpSource source(trace);
    return nat.report(
        replay::replay_target_sequential_stream(nat, source).value());
}

PacketRecord packet(std::uint32_t flow_id, TimeNs ts) {
    PacketRecord p;
    p.flow = make_flow(flow_id);
    p.ts = ts;
    p.len = 100;
    return p;
}

TEST(NatTable, LookupIsDeterministicAndNeverPlaceholder) {
    NatTable nat;
    for (std::uint32_t va = 1; va < 1000; ++va) {
        const auto ra = nat.lookup(va);
        EXPECT_EQ(ra, nat.lookup(va));
        EXPECT_NE(ra, kPlaceholder);
        EXPECT_NE(ra, 0u);
    }
}

TEST(LruTableSystem, RejectsNullPolicy) {
    EXPECT_THROW(
        LruTableTarget(1, [](std::size_t) { return nullptr; }, quick_config()),
        std::invalid_argument);
}

TEST(LruTableSystem, SimilarityTrackingNeedsBudget) {
    LruTableConfig cfg = quick_config();
    cfg.track_similarity = true;
    EXPECT_THROW(LruTableTarget(1, p4lru3_factory(30), cfg),
                 std::invalid_argument);
}

TEST(LruTableTarget, SimilarityNeedsOnePartition) {
    LruTableConfig cfg = quick_config();
    cfg.track_similarity = true;
    cfg.similarity_max_accesses = 100;
    EXPECT_NO_THROW(LruTableTarget(1, p4lru3_factory(30), cfg));
    try {
        LruTableTarget(4, p4lru3_factory(30), cfg);
        FAIL() << "similarity tracking accepted with 4 partitions";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("one partition"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LruTableTarget, LoadStateRefusedWhileTrackingSimilarity) {
    LruTableConfig tracking = quick_config();
    tracking.track_similarity = true;
    tracking.similarity_max_accesses = 100;
    LruTableTarget nat(1, p4lru3_factory(30), tracking);
    LruTableStats s;
    step(nat, s, packet(1, 0));
    const std::vector<std::byte> image = testutil::state_bytes(nat);
    // The tracker is not in the image: a resumed run would score only the
    // suffix, so a tracking target refuses to restore ...
    LruTableTarget resumed(1, p4lru3_factory(30), tracking);
    EXPECT_FALSE(resumed.load_state(image));
    // ... while the same image restores into a target that does not track.
    LruTableTarget plain(1, p4lru3_factory(30), quick_config());
    EXPECT_TRUE(plain.load_state(image));
}

TEST(LruTableSystem, FirstPacketMissesThenHitsAfterFill) {
    LruTableTarget nat(1, p4lru3_factory(300), quick_config());
    LruTableStats s;
    step(nat, s, packet(1, 0));  // miss, fill scheduled at t = 10us
    // Second packet before the fill lands: placeholder hit, still slow.
    step(nat, s, packet(1, 5 * kMicrosecond));
    // Third packet after the fill: fast path.
    const TimeNs lat = step(nat, s, packet(1, 20 * kMicrosecond));
    EXPECT_EQ(lat, quick_config().base_latency);

    const auto r = nat.report(s);
    EXPECT_EQ(r.packets, 3u);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.placeholder_hits, 1u);
    EXPECT_EQ(r.fast_path, 1u);
    EXPECT_NEAR(r.miss_rate, 2.0 / 3.0, 1e-9);
}

TEST(LruTableSystem, PlaceholderHitDoesNotScheduleSecondFill) {
    LruTableTarget nat(1, p4lru3_factory(300), quick_config());
    LruTableStats s;
    step(nat, s, packet(1, 0));
    for (int i = 1; i <= 5; ++i) {
        step(nat, s, packet(1, static_cast<TimeNs>(i)));  // placeholders
    }
    const auto r = nat.report(s);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.placeholder_hits, 5u);
}

TEST(LruTableSystem, SlowPathLatencyIsAccounted) {
    LruTableConfig cfg = quick_config();
    cfg.slow_path_delay = 100 * kMicrosecond;
    LruTableTarget nat(1, p4lru3_factory(300), cfg);
    LruTableStats s;
    const TimeNs lat = step(nat, s, packet(1, 0), cfg);
    EXPECT_EQ(lat, cfg.base_latency + cfg.slow_path_delay);
    const auto r = nat.report(s);
    EXPECT_NEAR(r.avg_added_latency_us, 100.0, 1e-6);
}

TEST(LruTableSystem, TranslationIsCorrectAfterFill) {
    const Policy* raw = nullptr;
    LruTableTarget nat(
        1,
        [&raw](std::size_t) {
            auto policy = p4lru3(300);
            raw = policy.get();
            return policy;
        },
        quick_config());
    NatTable nat_table;
    LruTableStats s;
    step(nat, s, packet(7, 0));
    // The fill lands once the gateway's clock passes its ready time; the
    // packet that drains it then takes the fast path.
    step(nat, s, packet(7, 20 * kMicrosecond));
    EXPECT_EQ(s.fast_path, 1u);
    const VirtualAddress va = make_flow(7).dst_ip;
    EXPECT_EQ(raw->peek(va),
              std::optional<std::uint32_t>(nat_table.lookup(va)));
}

TEST(LruTableSystem, EvictedFlowMissesAgain) {
    // One P4LRU3 unit (3 entries): the fourth distinct flow evicts the
    // least recent; re-touching the evicted flow is a miss again.
    LruTableTarget nat(1, p4lru3_factory(3), quick_config());
    LruTableStats s;
    TimeNs t = 0;
    for (std::uint32_t f = 1; f <= 4; ++f) {
        step(nat, s, packet(f, t));
        t += 20 * kMicrosecond;  // each fill lands before the next packet
    }
    const auto before = s.misses;
    step(nat, s, packet(1, t));  // flow 1 was evicted by flow 4
    EXPECT_EQ(s.misses, before + 1);
}

TEST(LruTableSystem, MissRateDropsWithMoreMemory) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 16;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](std::size_t entries) {
        LruTableTarget nat(1, p4lru3_factory(entries), quick_config());
        return replay_all(nat, trace).miss_rate;
    };
    // The sweep must straddle the working set (peak concurrency is a few
    // hundred flows at this scale) for memory to matter.
    const double small = run(30);
    const double medium = run(100);
    const double large = run(1'000);
    EXPECT_GT(small, medium);
    EXPECT_GT(medium, large);
    EXPECT_LT(large, 0.5);
}

TEST(LruTableSystem, LongerSlowPathRaisesMissRate) {
    trace::TraceConfig tc;
    tc.total_packets = 60'000;
    tc.segments = 8;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](TimeNs delay) {
        LruTableConfig cfg = quick_config();
        cfg.slow_path_delay = delay;
        LruTableTarget nat(1, p4lru3_factory(5'000), cfg);
        return replay_all(nat, trace).miss_rate;
    };
    // Longer control-plane latency = more placeholder hits = higher miss
    // rate (each miss blocks its flow for longer).
    EXPECT_LT(run(10 * kMicrosecond), run(10 * kMillisecond));
}

TEST(LruTableSystem, SimilarityTrackedWhenEnabled) {
    trace::TraceConfig tc;
    tc.total_packets = 30'000;
    const auto trace = trace::generate_trace(tc);
    LruTableConfig cfg = quick_config();
    cfg.track_similarity = true;
    cfg.similarity_max_accesses = 3 * trace.size() + 10;
    LruTableTarget nat(1, p4lru3_factory(600), cfg);
    const auto r = replay_all(nat, trace);
    EXPECT_GT(r.similarity, 0.3);
    EXPECT_LE(r.similarity, 1.0);
}

TEST(LruTableSystem, P4lru3BeatsP4lru1OnMissRate) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 8;
    const auto trace = trace::generate_trace(tc);
    const auto run = [&](const LruTableTarget::PolicyFactory& policy) {
        LruTableTarget nat(1, policy, quick_config());
        return replay_all(nat, trace).miss_rate;
    };
    const double p3 = run(p4lru3_factory(600));
    const double p1 = run([](std::size_t) {
        return std::make_unique<
            cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 1>>(600,
                                                                       0xA);
    });
    EXPECT_LT(p3, p1);
}

// Golden: the report the former standalone LruTable implementation produced
// on one fixed trace (generate_trace seed 7, 40k packets, 4 segments;
// P4LRU3 with 600 entries, dT = 10 us, similarity tracked).  The
// one-partition target must reproduce it exactly; its latency mean is the
// exact integer mean of the nanosecond sum.
TEST(LruTableTarget, OnePartitionMatchesGoldenReport) {
    trace::TraceConfig tc;
    tc.total_packets = 40'000;
    tc.segments = 4;
    tc.seed = 7;
    const auto trace = trace::generate_trace(tc);
    LruTableConfig cfg = quick_config();
    cfg.track_similarity = true;
    cfg.similarity_max_accesses = 3 * trace.size() + 16;
    LruTableTarget nat(1, p4lru3_factory(600), cfg);
    replay::SpanOpSource source(trace);
    const auto s = replay::replay_target_sequential_stream(nat, source).value();
    const auto r = nat.report(s);
    EXPECT_EQ(r.packets, 40'004u);
    EXPECT_EQ(r.fast_path, 38'708u);
    EXPECT_EQ(r.placeholder_hits, 806u);
    EXPECT_EQ(r.misses, 490u);
    EXPECT_EQ(s.added_latency_ns, 12'960'000u);
    EXPECT_EQ(r.avg_added_latency_us,
              static_cast<double>(s.added_latency_ns) / 1000.0 /
                  static_cast<double>(s.ops));
    EXPECT_DOUBLE_EQ(r.miss_rate, 0.032396760323967606);
    EXPECT_DOUBLE_EQ(r.similarity, 0.68372104130003986);
}

}  // namespace
}  // namespace p4lru::systems::lrutable
