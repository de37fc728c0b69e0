// Bridges trace::TraceSource (streaming on-disk packet traces,
// trace_source.hpp) into the replay engine's OpSource concept
// (SpanOpSource, replay.hpp) — the glue that lets a trace far larger than
// RAM flow through the replay entry points (replay_target_*_stream,
// resume_target_*_stream, run_supervised_stream) without ever being
// materialized as a vector.
//
// Two adapters:
//   * PacketTraceOpSource — the identity view, for targets whose Op IS
//     PacketRecord: batches are forwarded spans, zero copies.
//   * MappedTraceOpSource — decodes each PacketRecord into the target's Op
//     through a mapping functor, staged in a reusable buffer sized by the
//     pull (never the trace).  packet_op_source() is the canonical
//     instantiation: PacketToReplayOp (replay.hpp, key = 5-tuple flow,
//     value = wire length), streamed.
//
// Both forward seek/size/tell, so checkpoint resume seeks the underlying
// file instead of re-reading the prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_source.hpp"

namespace p4lru::replay {

/// Identity adapter: the op type is PacketRecord itself, so batches are the
/// trace source's spans, forwarded untouched.
class PacketTraceOpSource {
  public:
    using value_type = PacketRecord;

    explicit PacketTraceOpSource(trace::TraceSource& src) noexcept
        : src_(&src) {}

    [[nodiscard]] Expected<std::span<const PacketRecord>> next_batch(
        std::size_t max) {
        return src_->next_batch(max);
    }
    [[nodiscard]] Status seek(std::uint64_t op_index) {
        return src_->seek(op_index);
    }
    [[nodiscard]] std::uint64_t size() const { return src_->size(); }
    [[nodiscard]] std::uint64_t tell() const { return src_->tell(); }
    [[nodiscard]] const char* name() const { return src_->name(); }

  private:
    trace::TraceSource* src_;
};

/// Mapping adapter: each pulled PacketRecord becomes `MapFn{}(record)`,
/// staged in a buffer that is reused across batches — its footprint is the
/// pull size, so the bounded-memory property of the underlying source
/// survives the translation.  The returned span is valid until the next
/// next_batch()/seek(), same as the source's own contract.
template <typename Op, typename MapFn>
class MappedTraceOpSource {
  public:
    using value_type = Op;

    MappedTraceOpSource(trace::TraceSource& src, MapFn fn = {})
        : src_(&src), fn_(std::move(fn)) {}

    [[nodiscard]] Expected<std::span<const Op>> next_batch(std::size_t max) {
        auto pulled = src_->next_batch(max);
        if (!pulled.is_ok()) return pulled.status();
        const std::span<const PacketRecord> recs = pulled.value();
        buf_.clear();
        buf_.reserve(recs.size());
        for (const auto& p : recs) buf_.push_back(fn_(p));
        return Expected<std::span<const Op>>(
            std::span<const Op>(buf_.data(), buf_.size()));
    }
    [[nodiscard]] Status seek(std::uint64_t op_index) {
        return src_->seek(op_index);
    }
    [[nodiscard]] std::uint64_t size() const { return src_->size(); }
    [[nodiscard]] std::uint64_t tell() const { return src_->tell(); }
    [[nodiscard]] const char* name() const { return src_->name(); }

  private:
    trace::TraceSource* src_;
    MapFn fn_;
    std::vector<Op> buf_;  ///< reusable per-batch staging
};

/// The canonical packet-trace op source: streams the exact op sequence
/// ops_from_packets would have materialized.
using PacketOpSource =
    MappedTraceOpSource<ReplayOp<FlowKey, std::uint32_t>, PacketToReplayOp>;

[[nodiscard]] inline PacketOpSource packet_op_source(
    trace::TraceSource& src) {
    return PacketOpSource(src);
}

}  // namespace p4lru::replay
