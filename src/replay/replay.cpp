#include "p4lru/replay/replay.hpp"

namespace p4lru::replay {

std::vector<ReplayOp<FlowKey, std::uint32_t>> ops_from_packets(
    std::span<const PacketRecord> trace) {
    std::vector<ReplayOp<FlowKey, std::uint32_t>> ops;
    ops.reserve(trace.size());
    for (const auto& p : trace) ops.push_back(PacketToReplayOp{}(p));
    return ops;
}

}  // namespace p4lru::replay
