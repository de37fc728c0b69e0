// Figure 17 — LruMon parameter experiment (Section 4.2.2): accuracy vs
// upload volume of the Tower filter + P4LRU3 pipeline.
//   (a) total error rate vs bandwidth threshold (threshold / reset period),
//       one series per reset period
//   (b) upload rate vs filter threshold, per reset period
//   (c) upload rate vs total error (parametric over the threshold sweep)
//   (d) max per-flow error vs threshold (never exceeds the threshold beyond
//       per-window slack)
// Extension: the filter-kind ablation (Tower vs CM vs CU) the paper hints
// at in Section 3.3.
#include <cstdio>

#include "bench_common.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrumon;

namespace {

using Factory = PolicyFactory<std::uint32_t, FlowLen, core::AddMerge>;

LruMonReport run(const std::vector<PacketRecord>& trace, TimeNs reset,
                 std::uint32_t threshold, FilterKind kind,
                 std::size_t filter_scale = 1) {
    FilterConfig fcfg;
    fcfg.reset_period = reset;
    fcfg.tower_width1 = scaled((1u << 17) / filter_scale);
    fcfg.tower_width2 = scaled((1u << 16) / filter_scale);
    fcfg.cm_width = scaled((3u << 14) / filter_scale);  // equal memory: 96KB
    LruMonConfig cfg;
    cfg.threshold = threshold;
    const std::size_t entries = scaled(3 * (1u << 10));
    LruMonTarget target(
        1, [&](std::size_t) { return make_filter(kind, fcfg); },
        [=](std::size_t) { return Factory::p4lru3(entries, 0x17A); }, cfg);
    replay::SpanOpSource source(trace);
    return target.report(
        replay::replay_target_sequential_stream(target, source).value());
}

}  // namespace

int main() {
    const auto trace = make_trace(60, 170);
    const std::vector<TimeNs> resets = {5 * kMillisecond, 10 * kMillisecond,
                                        20 * kMillisecond};
    const std::vector<std::uint32_t> thresholds = {500, 1000, 2000, 4000,
                                                   8000};

    ConsoleTable a({"bandwidth thr KB/s", "reset ms", "total error %"});
    ConsoleTable b({"threshold B", "reset ms", "upload KPPS"});
    ConsoleTable c({"reset ms", "total error %", "upload KPPS"});
    ConsoleTable d({"threshold B", "reset ms", "max flow error B",
                    "overestimated flows"});
    std::uint64_t overestimated = 0;  // LruMon's guarantee: must stay 0

    for (const TimeNs reset : resets) {
        for (const std::uint32_t thr : thresholds) {
            const auto r = run(trace, reset, thr, FilterKind::kTower);
            const double bw_kbps =
                static_cast<double>(thr) /
                (static_cast<double>(reset) / 1e9) / 1e3;
            a.add_row({ConsoleTable::num(bw_kbps, 0),
                       std::to_string(reset / kMillisecond),
                       pct(r.total_error_rate)});
            b.add_row({std::to_string(thr),
                       std::to_string(reset / kMillisecond),
                       ConsoleTable::num(r.upload_kpps, 1)});
            c.add_row({std::to_string(reset / kMillisecond),
                       pct(r.total_error_rate),
                       ConsoleTable::num(r.upload_kpps, 1)});
            d.add_row({std::to_string(thr),
                       std::to_string(reset / kMillisecond),
                       std::to_string(r.max_flow_error),
                       std::to_string(r.overestimated_flows)});
            overestimated += r.overestimated_flows;
        }
    }

    a.print("Figure 17(a): total error rate vs bandwidth threshold");
    b.print("Figure 17(b): upload rate vs filter threshold");
    c.print("Figure 17(c): upload rate vs total error (parametric)");
    d.print("Figure 17(d): max per-flow error vs threshold");

    // Extension: filter ablation at the default setting.
    {
        ConsoleTable t({"filter", "upload KPPS", "total error %",
                        "max flow error B"});
        for (const auto [kind, name] :
             {std::pair{FilterKind::kTower, "Tower"},
              std::pair{FilterKind::kCm, "CM"},
              std::pair{FilterKind::kCu, "CU"}}) {
            // Starved filter memory (1/64 of the default): the regime
            // where the sketch choice matters.
            const auto r = run(trace, 10 * kMillisecond, 1500, kind, 64);
            t.add_row({name, ConsoleTable::num(r.upload_kpps, 1),
                       pct(r.total_error_rate),
                       std::to_string(r.max_flow_error)});
            overestimated += r.overestimated_flows;
        }
        t.print("Extension: filter-kind ablation (Section 3.3 'compatible "
                "with other sketches')");
    }

    std::printf(
        "\nPaper shape: shorter reset periods -> lower error but more\n"
        "uploads; at equal total error the upload volume is nearly\n"
        "independent of the reset period (c); max flow error stays within\n"
        "the filter threshold (d), modulo one window's slack.\n");
    if (overestimated != 0) {
        std::printf("\nOVERESTIMATED FLOWS (BUG): %llu; LruMon must never "
                    "overestimate\n",
                    static_cast<unsigned long long>(overestimated));
        return 1;
    }
    return 0;
}
