// Binary trace serialization: lets benches generate a trace once and replay
// it across policy sweeps, and lets users feed their own converted traces.
//
// Format (little-endian):
//   magic "P4LRUTRC" (8 bytes) | version u32 | count u64 |
//   count x { ts u64 | src_ip u32 | dst_ip u32 | src_port u16 | dst_port u16
//             | proto u8 | pad u8[3] | len u32 }
//
// Reading is hardened against rotten files: read_trace_checked returns a
// typed Status (kIoError / kCorrupt / kTruncated) carrying the byte offset
// where parsing failed, and cross-checks the header's record count against
// the file size before allocating — a corrupt count field cannot drive a
// multi-gigabyte reserve.  read_trace is the throwing convenience wrapper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/fault/status.hpp"

namespace p4lru::trace {

/// On-disk geometry of the P4LRUTRC format, shared by the writer below and
/// the file reader (MmapSource, trace_source.hpp): record `i` lives at byte
/// offset kTraceHeaderBytes + i * kTraceRecordBytes.
inline constexpr std::size_t kTraceRecordBytes = 8 + 4 + 4 + 2 + 2 + 1 + 3 + 4;
inline constexpr std::size_t kTraceHeaderBytes = 8 + 4 + 8;

/// Decode one on-disk record (kTraceRecordBytes bytes, little-endian) into
/// the in-memory PacketRecord.  The layouts differ (PacketRecord carries
/// alignment padding), so every reader decodes rather than reinterprets.
[[nodiscard]] PacketRecord decode_trace_record(const std::uint8_t* buf);

/// Encode `r` into `buf` (kTraceRecordBytes bytes), the inverse of
/// decode_trace_record.
void encode_trace_record(const PacketRecord& r, std::uint8_t* buf);

/// Validated header facts: how many records the file holds and where the
/// body starts.
struct TraceHeaderInfo {
    std::uint64_t count = 0;      ///< records promised (and size-verified)
    std::uint64_t file_size = 0;  ///< bytes on disk at validation time
};

/// Validate the 20-byte header `hdr` of a trace file of `file_size` bytes:
/// magic, version, and the count-vs-file-size cross-check that stops a
/// corrupt count field from driving a multi-gigabyte reserve.  MmapSource
/// checks every file it opens through it.
[[nodiscard]] Expected<TraceHeaderInfo> validate_trace_header(
    const std::uint8_t* hdr, std::uint64_t file_size,
    const std::string& path);

/// Write the trace to `path`. Throws std::runtime_error on IO failure.
void write_trace(const std::string& path,
                 const std::vector<PacketRecord>& records);

/// Read a trace from `path`; the typed-error path.  Drains one MmapSource
/// into a vector, so it rejects exactly what the streaming reader rejects.
/// On failure the Status names the cause and, for corruption/truncation,
/// the byte offset at which the file stopped making sense (Status::offset).
[[nodiscard]] Expected<std::vector<PacketRecord>> read_trace_checked(
    const std::string& path);

/// Read a trace from `path`. Throws std::runtime_error (message includes
/// the byte offset) on IO failure, bad magic, unsupported version, a record
/// count that exceeds the file size, or a truncated body.
[[nodiscard]] std::vector<PacketRecord> read_trace(const std::string& path);

}  // namespace p4lru::trace
