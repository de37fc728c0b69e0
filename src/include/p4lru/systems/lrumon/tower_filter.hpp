// The mouse-flow filter of LruMon (Section 3.3): a sketch whose counters are
// periodically reset. The paper pairs every counter with an 8-bit timestamp
// for lazy per-counter resets on a millisecond scale; resetting a counter on
// first touch in a new window is observably identical to clearing the whole
// sketch at the window boundary, which is how we model it.
//
// One filter over three interchangeable sketches (the paper: "LruMon is also
// compatible with other sketches, such as the CM sketch or the approximate
// CU sketch"), held in a std::variant so the window roll is written once.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/sketch/countmin.hpp"
#include "p4lru/sketch/towersketch.hpp"

namespace p4lru::systems::lrumon {

struct FilterConfig {
    TimeNs reset_period = 10 * kMillisecond;  ///< paper default
    std::uint64_t seed = 0x70EEE;
    std::size_t tower_width1 = 1u << 20;  ///< 8-bit level
    std::size_t tower_width2 = 1u << 19;  ///< 16-bit level
    std::size_t cm_width = 1u << 19;      ///< CM / CU counters per row
    std::size_t cm_depth = 2;
};

/// kTower is the paper's primary configuration, kCm the testbed's
/// (Figure 11); kCu's conservative update halves the overestimation.
enum class FilterKind { kTower, kCm, kCu };

/// Windowed filter over a 32-bit flow fingerprint.
class FlowFilter {
  public:
    /// Throws std::invalid_argument on a zero reset period.
    FlowFilter(FilterKind kind, const FilterConfig& cfg)
        : reset_period_(cfg.reset_period), sketch_(make_sketch(kind, cfg)) {
        if (reset_period_ == 0) {
            throw std::invalid_argument("FlowFilter: zero reset period");
        }
    }

    /// Count `len` bytes for `fp` at time `ts`; returns the flow's estimated
    /// bytes within the current reset window.
    std::uint64_t add_and_estimate(std::uint32_t fp, std::uint32_t len,
                                   TimeNs ts) {
        const std::uint64_t w = ts / reset_period_;
        return std::visit(
            [&](auto& s) {
                if (w != window_) {
                    s.clear();
                    window_ = w;
                }
                return s.add_and_estimate(fp, len);
            },
            sketch_);
    }

    [[nodiscard]] std::string name() const {
        static constexpr const char* kNames[] = {"Tower", "CM", "CU"};
        return kNames[sketch_.index()];
    }
    [[nodiscard]] std::size_t memory_bytes() const {
        return std::visit([](const auto& s) { return s.memory_bytes(); },
                          sketch_);
    }

    /// Append the filter's mutable state (reset window + sketch counters)
    /// to `w`; load_state restores it on an identically-configured filter
    /// (false on a short or misshapen image).  Checkpoint snapshot plane of
    /// the LruMon replay target.
    void save_state(io::ByteWriter& w) const {
        w.u64(window_);
        std::visit([&](const auto& s) { s.save(w); }, sketch_);
    }
    [[nodiscard]] bool load_state(io::ByteReader& r) {
        return r.u64(window_) &&
               std::visit([&](auto& s) { return s.load(r); }, sketch_);
    }

  private:
    /// Alternatives in FilterKind order.
    using Sketch = std::variant<sketch::TowerSketch<std::uint32_t>,
                                sketch::CountMin<std::uint32_t>,
                                sketch::CuSketch<std::uint32_t>>;

    static Sketch make_sketch(FilterKind kind, const FilterConfig& cfg) {
        switch (kind) {
            case FilterKind::kTower:
                return Sketch(std::in_place_index<0>,
                              std::vector<sketch::TowerLevelConfig>{
                                  {cfg.tower_width1, 8},
                                  {cfg.tower_width2, 16}},
                              cfg.seed);
            case FilterKind::kCm:
                return Sketch(std::in_place_index<1>, cfg.cm_width,
                              cfg.cm_depth, cfg.seed);
            case FilterKind::kCu:
                return Sketch(std::in_place_index<2>, cfg.cm_width,
                              cfg.cm_depth, cfg.seed);
        }
        throw std::invalid_argument("FlowFilter: unknown kind");
    }

    TimeNs reset_period_;
    std::uint64_t window_ = 0;
    Sketch sketch_;
};

[[nodiscard]] inline std::unique_ptr<FlowFilter> make_filter(
    FilterKind kind, const FilterConfig& cfg) {
    return std::make_unique<FlowFilter>(kind, cfg);
}

}  // namespace p4lru::systems::lrumon
