// p4lru_sim — command-line driver for the whole library.
//
//   p4lru_sim gen-trace  --packets N --segments N --seed S --out t.trc
//   p4lru_sim stats      --trace t.trc
//   p4lru_sim lrutable   [--trace t.trc] --policy p4lru3 --entries N
//                        --dt-us N [--packets N --segments N --seed S]
//   p4lru_sim lrumon     [--trace t.trc] --policy p4lru3 --entries N
//                        --threshold B --reset-ms N --filter tower|cm|cu
//   p4lru_sim lruindex   --items N --queries N --threads N --levels N
//                        --units N [--alpha A]
//   p4lru_sim resources  (Table-2 style report for all three systems)
//   p4lru_sim p4gen      --program lru2|lru3|tower [--units N]
//
// Policies: p4lru1 p4lru2 p4lru3 p4lru4 timeout elastic coco ideal lfu clock
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "p4lru/cache/policy.hpp"
#include "p4lru/pipeline/p4lru2_program.hpp"
#include "p4lru/pipeline/p4lru3_program.hpp"
#include "p4lru/pipeline/system_resources.hpp"
#include "p4lru/pipeline/tower_program.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"

namespace {

using namespace p4lru;

/// Tiny --key value flag parser.  A flag without a value and a number that
/// does not parse are errors (std::invalid_argument), never a default.
class Flags {
  public:
    Flags(int argc, char** argv, int start) {
        for (int i = start; i < argc; i += 2) {
            if (std::strncmp(argv[i], "--", 2) != 0) {
                throw std::invalid_argument(std::string("expected flag, got ") +
                                            argv[i]);
            }
            if (i + 1 == argc) {
                throw std::invalid_argument(std::string("flag ") + argv[i] +
                                            " needs a value");
            }
            values_[argv[i] + 2] = argv[i + 1];
        }
    }

    [[nodiscard]] std::string str(const std::string& key,
                                  const std::string& fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }
    [[nodiscard]] std::uint64_t num(const std::string& key,
                                    std::uint64_t fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        const std::string& v = it->second;
        char* end = nullptr;
        errno = 0;
        const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0' || errno == ERANGE) {
            throw std::invalid_argument("--" + key +
                                        " expects a non-negative integer, "
                                        "got '" + v + "'");
        }
        return n;
    }
    [[nodiscard]] double real(const std::string& key,
                              double fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        const std::string& v = it->second;
        char* end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0') {
            throw std::invalid_argument("--" + key +
                                        " expects a number, got '" + v + "'");
        }
        return x;
    }

  private:
    std::map<std::string, std::string> values_;
};

std::vector<PacketRecord> load_or_generate(const Flags& f) {
    const auto path = f.str("trace", "");
    if (!path.empty()) return trace::read_trace(path);
    trace::TraceConfig cfg;
    cfg.total_packets = f.num("packets", 1'000'000);
    cfg.segments = f.num("segments", 30);
    cfg.seed = f.num("seed", 1);
    return trace::generate_trace(cfg);
}

template <typename Key, typename Value, typename Merge>
std::unique_ptr<cache::ReplacementPolicy<Key, Value>> make_policy(
    const std::string& name, std::size_t entries, const Flags& f) {
    const std::uint32_t seed = static_cast<std::uint32_t>(f.num("seed", 1));
    if (name == "p4lru1") {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 1, Merge>>(
            entries, seed);
    }
    if (name == "p4lru2") {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 2, Merge>>(
            entries, seed);
    }
    if (name == "p4lru3") {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 3, Merge>>(
            entries, seed);
    }
    if (name == "p4lru4") {
        return std::make_unique<cache::P4lru4ArrayPolicy<Key, Value, Merge>>(
            entries, seed);
    }
    if (name == "timeout") {
        return std::make_unique<cache::TimeoutPolicy<Key, Value, Merge>>(
            entries, seed, f.num("timeout-ms", 100) * kMillisecond);
    }
    if (name == "elastic") {
        return std::make_unique<cache::ElasticPolicy<Key, Value, Merge>>(
            entries, seed);
    }
    if (name == "coco") {
        return std::make_unique<cache::CocoPolicy<Key, Value, Merge>>(entries,
                                                                      seed);
    }
    if (name == "ideal") {
        return std::make_unique<cache::IdealLruPolicy<Key, Value, Merge>>(
            entries);
    }
    if (name == "lfu") {
        return std::make_unique<cache::LfuPolicy<Key, Value, Merge>>(entries,
                                                                     seed);
    }
    if (name == "clock") {
        return std::make_unique<cache::ClockPolicy<Key, Value, Merge>>(
            entries);
    }
    throw std::invalid_argument("unknown policy: " + name);
}

int cmd_gen_trace(const Flags& f) {
    const auto trace = load_or_generate(f);
    const auto out = f.str("out", "");
    if (!out.empty()) {
        trace::write_trace(out, trace);
        std::printf("wrote %zu packets to %s\n", trace.size(), out.c_str());
    }
    const auto s = trace::compute_stats(trace);
    std::printf("packets %zu  flows %zu  max-concurrent %zu  bytes %lu  "
                "duration %.3f s\n",
                s.packets, s.flows, s.max_concurrent, s.total_bytes,
                static_cast<double>(s.duration) / 1e9);
    return 0;
}

int cmd_lrutable(const Flags& f) {
    const auto trace = load_or_generate(f);
    systems::lrutable::LruTableConfig cfg;
    cfg.slow_path_delay = f.num("dt-us", 40) * kMicrosecond;
    std::string name;
    systems::lrutable::LruTableTarget sys(
        1,
        [&](std::size_t) {
            auto policy =
                make_policy<systems::lrutable::VirtualAddress, std::uint32_t,
                            core::ReplaceMerge>(f.str("policy", "p4lru3"),
                                                f.num("entries", 12'288), f);
            name = policy->name();
            return policy;
        },
        cfg);
    replay::SpanOpSource source(trace);
    const auto r = sys.report(
        replay::replay_target_sequential_stream(sys, source).value());
    std::printf("policy %-9s packets %lu fast %lu placeholder %lu miss %lu\n"
                "miss rate %.3f%%  avg added latency %.3f us\n",
                name.c_str(), r.packets, r.fast_path, r.placeholder_hits,
                r.misses, 100.0 * r.miss_rate, r.avg_added_latency_us);
    return 0;
}

int cmd_lrumon(const Flags& f) {
    const auto trace = load_or_generate(f);
    systems::lrumon::FilterConfig fcfg;
    fcfg.reset_period = f.num("reset-ms", 10) * kMillisecond;
    const auto kind_name = f.str("filter", "tower");
    systems::lrumon::FilterKind kind = systems::lrumon::FilterKind::kTower;
    if (kind_name == "cm") kind = systems::lrumon::FilterKind::kCm;
    else if (kind_name == "cu") kind = systems::lrumon::FilterKind::kCu;
    else if (kind_name != "tower") {
        throw std::invalid_argument("unknown filter: " + kind_name);
    }
    systems::lrumon::LruMonConfig cfg;
    cfg.threshold = static_cast<std::uint32_t>(f.num("threshold", 1500));
    std::string name;
    systems::lrumon::LruMonTarget sys(
        1,
        [&](std::size_t) { return systems::lrumon::make_filter(kind, fcfg); },
        [&](std::size_t) {
            auto policy = make_policy<std::uint32_t, systems::lrumon::FlowLen,
                                      core::AddMerge>(
                f.str("policy", "p4lru3"), f.num("entries", 768), f);
            name = policy->name();
            return policy;
        },
        cfg);
    replay::SpanOpSource source(trace);
    const auto r = sys.report(
        replay::replay_target_sequential_stream(sys, source).value());
    std::printf(
        "policy %-9s filter %-5s  elephants %lu (miss %.2f%%)  uploads %lu "
        "(%.1f KPPS)\n"
        "total error %.3f%%  max flow error %lu B  overestimated %lu\n",
        name.c_str(), kind_name.c_str(), r.elephant_packets,
        100.0 * r.cache_miss_rate, r.uploads, r.upload_kpps,
        100.0 * r.total_error_rate, r.max_flow_error, r.overestimated_flows);
    return 0;
}

int cmd_lruindex(const Flags& f) {
    systems::lruindex::DbServer server(f.num("items", 200'000),
                                       systems::lruindex::ServerCosts{});
    systems::lruindex::SeriesIndexCache cache(
        f.num("levels", 4), f.num("units", 4096),
        static_cast<std::uint32_t>(f.num("seed", 0x1D)));
    systems::lruindex::DriverConfig cfg;
    cfg.threads = f.num("threads", 8);
    cfg.queries = f.num("queries", 100'000);
    cfg.workload.items = server.items();
    cfg.workload.zipf_alpha = f.real("alpha", 0.9);
    systems::lruindex::NaiveIndexCache no_cache;
    const auto with = run_driver(cfg, server, cache);
    const auto naive = run_driver(cfg, server, no_cache);
    std::printf(
        "cached %.1f KTPS (miss %.2f%%, latency %.1f us)  naive %.1f KTPS\n"
        "speedup %.3fx  wrong replies %lu\n",
        with.throughput_ktps, 100.0 * with.miss_rate, with.avg_latency_us,
        naive.throughput_ktps, with.throughput_ktps / naive.throughput_ktps,
        with.wrong_replies);
    if (with.wrong_replies != 0 || naive.wrong_replies != 0) {
        std::fprintf(stderr, "error: the server sent wrong replies\n");
        return 1;
    }
    return 0;
}

int cmd_resources() {
    const auto table = pipeline::lrutable_resources();
    const auto index = pipeline::lruindex_resources();
    const auto mon = pipeline::lrumon_resources();
    std::printf("== LruTable ==\n%s\n== LruIndex ==\n%s\n== LruMon ==\n%s",
                table.to_table().c_str(), index.to_table().c_str(),
                mon.to_table().c_str());
    return 0;
}

int cmd_p4gen(const Flags& f) {
    const auto program = f.str("program", "lru3");
    const auto units = f.num("units", 1u << 16);
    if (program == "lru3") {
        pipeline::P4lru3PipelineCache cache(units, 0xAB,
                                            pipeline::ValueMode::kReadCache);
        std::printf("%s", cache.pipeline().export_p4("p4lru3_cache").c_str());
    } else if (program == "lru2") {
        pipeline::P4lru2PipelineCache cache(units, 0xAB,
                                            pipeline::ValueMode::kReadCache);
        std::printf("%s", cache.pipeline().export_p4("p4lru2_cache").c_str());
    } else if (program == "tower") {
        pipeline::TowerPipelineFilter tower(
            pipeline::TowerPipelineFilter::Config{});
        std::printf("%s", tower.pipeline().export_p4("tower_filter").c_str());
    } else {
        throw std::invalid_argument("unknown program: " + program);
    }
    return 0;
}

int usage() {
    std::fprintf(
        stderr,
        "usage: p4lru_sim <gen-trace|stats|lrutable|lrumon|lruindex|"
        "resources|p4gen> [--flag value ...]\n"
        "see the header of tools/p4lru_sim.cpp for the full flag list\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    try {
        const Flags flags(argc, argv, 2);
        if (cmd == "gen-trace" || cmd == "stats") return cmd_gen_trace(flags);
        if (cmd == "lrutable") return cmd_lrutable(flags);
        if (cmd == "lrumon") return cmd_lrumon(flags);
        if (cmd == "lruindex") return cmd_lruindex(flags);
        if (cmd == "resources") return cmd_resources();
        if (cmd == "p4gen") return cmd_p4gen(flags);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
