// The P4LRUTGC checkpoint image: the one on-disk form of every replay
// checkpoint (DESIGN.md §10, §12), whatever the ReplayTarget — the bare
// P4LRU array (CacheReplayTarget: state = the storage plane image) and the
// three paper systems alike.  This module owns the byte format and nothing
// else: one sealing writer, one frame parser, and the verify probe built
// on it.  target_checkpoint.hpp layers the typed TargetCheckpoint<Stats>
// on top; durable_store.hpp moves the sealed images to and from disk.
//
// Format version 2 (little-endian), offsets in bytes:
//
//   off  size  field
//     0     8  magic "P4LRUTGC"
//     8     4  version (u32, = 2)
//    12     4  target state id (Target::state_id())
//    16     8  target state fingerprint
//    24     8  unit count
//    32     8  op cursor
//    40     8  delivered batches
//    48     8  backpressure waits
//    56     8  park wait (us)
//    64     8  shards drained inline
//    72     8  workers abandoned
//    80    24  ScrubReport (scanned, corrupt, repaired; u64 each)
//   104     4  stats record size R (u32, = sizeof(Stats))
//   108     4  shard count S (u32)
//   112     8  state image size P
//   120     R  merged Stats record
//   120+R  R*S per-shard Stats slices
//   ...    P   raw target state bytes
//   ...then the 16-byte seal footer:
//   +0      4  crc_header (CRC32 over bytes [0, 120))
//   +4      4  crc_stats  (CRC32 over the (1+S)*R stats-record bytes)
//   +8      4  crc_state  (CRC32 over the P state bytes)
//   +12     4  crc_footer (CRC32 over the 12 preceding footer bytes)
//
// Stats records are raw memory images of a trivially copyable type; the
// record size field plus the state id / fingerprint reject an image written
// by a different Stats layout or target configuration.  Version 1 (the
// same layout without the seal) is no longer read.
//
// The frame parser is the only code that reads this framing.  It checks
// every count against the image size before anything is trusted —
// subtracting from the body size, never adding up the promises, so no
// header value can wrap the arithmetic — and only then CRCs the four
// sections.  Every strict prefix of a valid image is rejected, and any
// single-bit flip trips exactly one of the magic/version compare, the size
// cross-check or one of the four CRCs (durable_store_test sweeps both).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/core/unit_storage.hpp"
#include "p4lru/fault/status.hpp"

namespace p4lru::replay {

/// A checkpoint rendered to its sealed byte image, plus the offsets at which
/// each section ends — header, stats records, state bytes, seal footer.  The
/// image is gathered: it owns the header, the statistics records and the
/// footer, and holds the state as the parts it was sealed from — borrowed
/// (a target's live planes, a checkpoint the caller keeps) or taken over
/// (a temporary checkpoint's buffer).  It is valid while everything it
/// borrows is; flatten() it to keep it longer.  The section ends are what
/// the deterministic crash injector (fault::CrashPoint) cuts at: "a crash
/// between section writes" is a prefix of `image` ending at one of them.
struct SerializedCheckpoint {
    io::GatherImage image;
    std::vector<std::uint64_t> section_ends;  ///< ascending; back()==size
};

/// The target-independent header fields of a checkpoint: where the cut is,
/// which target shape may restore it, and the degradation telemetry the run
/// had accumulated by then.
struct CheckpointHeader {
    std::uint64_t cursor = 0;      ///< ops applied before the snapshot
    std::uint64_t unit_count = 0;  ///< shape guard for resume
    std::uint32_t state_id = 0;    ///< Target::state_id() shape guard
    std::uint64_t state_fingerprint = 0;  ///< Target::state_fingerprint()
    std::uint64_t delivered_batches = 0;
    std::uint64_t backpressure_waits = 0;
    std::uint64_t park_wait_us = 0;
    std::uint64_t drained_inline = 0;
    std::uint64_t abandoned_workers = 0;
    core::ScrubReport scrub{};
};

/// One sealed section: its byte range [begin, end) and its CRC as stored in
/// the footer and as recomputed over the bytes.
struct SectionCheck {
    const char* name = "";
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t stored = 0;
    std::uint32_t computed = 0;

    [[nodiscard]] bool ok() const noexcept { return stored == computed; }
};

/// A structurally sound image: the header fields and views of the record
/// and state sections (nothing is copied — the views alias the image), plus
/// the CRC verdict of every section.
struct CheckpointFrame {
    CheckpointHeader header;
    std::uint32_t record_bytes = 0;  ///< R: bytes per stats record
    std::uint32_t shard_count = 0;   ///< S: per-shard slices
    std::span<const std::byte> records;  ///< merged record, then S slices
    std::span<const std::byte> state;    ///< P raw target state bytes
    /// header, stats records, state image, seal footer — in file order.
    std::array<SectionCheck, 4> sections{};
    /// First CRC mismatch (the footer's own CRC is judged first, since a
    /// damaged footer makes the stored section CRCs meaningless); ok when
    /// every section verifies.
    Status seal;
};

/// Render a checkpoint to its sealed image: the header, `merged_record`,
/// `shard_records` (S records of merged_record.size() bytes each), the
/// state parts, then the seal footer.  The header and records are copied
/// into the image; the state bytes are read for the CRC (one crc32
/// chained over the parts) and for the write, never copied — its parts
/// become the image's.
[[nodiscard]] SerializedCheckpoint seal_checkpoint_image(
    const CheckpointHeader& header, std::span<const std::byte> merged_record,
    std::span<const std::byte> shard_records, io::GatherImage state);

/// Frame an image: magic, version and every size cross-check (kCorrupt /
/// kTruncated carrying the byte offset where the image stopped making
/// sense), then the four section CRCs into `sections` / `seal`.  A failed
/// seal is reported in the frame, not as an error, so an inspector can
/// still show the header of a damaged image.  `origin` names the image in
/// messages.
[[nodiscard]] Expected<CheckpointFrame> parse_checkpoint_frame(
    std::span<const std::byte> image, const std::string& origin);

/// Structural + CRC verdict of an image, needing no Stats type: ok iff a
/// typed reader with the right record size would accept its framing.
[[nodiscard]] Status verify_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin);

}  // namespace p4lru::replay
