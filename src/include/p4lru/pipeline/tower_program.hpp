// The TowerSketch mouse-flow filter compiled onto the pipeline model: two
// counter arrays with different widths (8-bit and 16-bit semantics emulated
// by saturation constants), a min stage, and the elephant-threshold compare.
// Together with P4lru3PipelineCache this composes the LruMon data plane;
// its resource report feeds the Table-2 reproduction.
#pragma once

#include <cstdint>

#include "p4lru/pipeline/pipeline.hpp"

namespace p4lru::pipeline {

class TowerPipelineFilter {
  public:
    struct Config {
        std::size_t width1 = 1u << 20;  ///< level-1 counters (8-bit)
        std::size_t width2 = 1u << 19;  ///< level-2 counters (16-bit)
        std::uint32_t max1 = 0xFF;      ///< saturation of level 1
        std::uint32_t max2 = 0xFFFF;    ///< saturation of level 2
        std::uint32_t threshold = 1500; ///< elephant threshold L (bytes)
        std::uint32_t seed = 0x7077;
    };

    explicit TowerPipelineFilter(const Config& cfg);

    struct Result {
        std::uint32_t estimate = 0;  ///< min of the non-saturated counters
        bool elephant = false;       ///< estimate >= threshold
    };

    /// One packet: key (e.g. flow fingerprint) and byte length.
    Result update(std::uint32_t key, std::uint32_t len);

    /// Control-plane style periodic counter reset (the per-counter
    /// timestamp trick of the paper is modelled at system level; see
    /// systems::lrumon::FlowFilter).
    void reset_counters();

    [[nodiscard]] const Pipeline& pipeline() const noexcept { return pipe_; }
    [[nodiscard]] ResourceReport resources() const {
        return pipe_.resources();
    }

  private:
    void build();

    Config cfg_;
    Pipeline pipe_;
    FieldId f_key_, f_len_, f_i1_, f_i2_, f_e1_, f_e2_, f_lt_, f_sat1_,
        f_mincand_, f_min_, f_eleph_;
    std::size_t reg_c1_, reg_c2_;
};

}  // namespace p4lru::pipeline
