#include "p4lru/replay/checkpoint_io.hpp"

#include <cstring>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"

namespace p4lru::replay {
namespace {

constexpr char kMagic[8] = {'P', '4', 'L', 'R', 'U', 'T', 'G', 'C'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kHeaderBytes = 120;
constexpr std::uint64_t kSealBytes = 16;  // 4 x CRC32

// Field offsets of the header table in checkpoint_io.hpp; named where an
// error message points at them.
constexpr std::uint64_t kOffVersion = 8;
constexpr std::uint64_t kOffRecordBytes = 104;

std::uint32_t crc_of(std::span<const std::byte> bytes,
                     std::uint32_t seed = 0) {
    return hash::crc32(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(bytes.data()),
            bytes.size()),
        seed);
}

}  // namespace

SerializedCheckpoint seal_checkpoint_image(
    const CheckpointHeader& h, std::span<const std::byte> merged_record,
    std::span<const std::byte> shard_records, io::GatherImage state) {
    std::vector<std::byte> head;
    const std::uint64_t records = merged_record.size() + shard_records.size();
    const std::uint64_t state_bytes = state.size();
    head.reserve(kHeaderBytes + records);
    io::ByteWriter w(head);
    for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
    w.u32(kVersion);
    w.u32(h.state_id);
    w.u64(h.state_fingerprint);
    w.u64(h.unit_count);
    w.u64(h.cursor);
    w.u64(h.delivered_batches);
    w.u64(h.backpressure_waits);
    w.u64(h.park_wait_us);
    w.u64(h.drained_inline);
    w.u64(h.abandoned_workers);
    w.u64(h.scrub.scanned);
    w.u64(h.scrub.corrupt);
    w.u64(h.scrub.repaired);
    w.u32(static_cast<std::uint32_t>(merged_record.size()));
    w.u32(static_cast<std::uint32_t>(shard_records.size() /
                                     merged_record.size()));
    w.u64(state_bytes);
    w.bytes(merged_record.data(), merged_record.size());
    w.bytes(shard_records.data(), shard_records.size());

    // Seal footer: one CRC per section, then a CRC over those three so a
    // flipped bit inside the footer itself is caught too.  The state CRC
    // chains crc32 over the parts where they live.
    const std::span<const std::byte> head_bytes(head);
    std::uint32_t crc_state = 0;
    for (std::size_t i = 0; i < state.part_count(); ++i) {
        crc_state = crc_of(state.part(i), crc_state);
    }
    std::vector<std::byte> footer;
    io::ByteWriter f(footer);
    f.u32(crc_of(head_bytes.first(kHeaderBytes)));
    f.u32(crc_of(head_bytes.subspan(kHeaderBytes)));
    f.u32(crc_state);
    f.u32(crc_of(footer));

    SerializedCheckpoint out;
    out.section_ends = {kHeaderBytes, kHeaderBytes + records,
                        kHeaderBytes + records + state_bytes,
                        kHeaderBytes + records + state_bytes + kSealBytes};
    out.image.own(std::move(head));
    out.image.append(std::move(state));
    out.image.own(std::move(footer));
    return out;
}

Expected<CheckpointFrame> parse_checkpoint_frame(
    std::span<const std::byte> image, const std::string& origin) {
    const std::uint64_t size = image.size();
    if (size < kHeaderBytes) {
        return truncated("checkpoint image of " + std::to_string(size) +
                             " bytes from '" + origin +
                             "' is shorter than the 120-byte header",
                         size);
    }
    const std::byte* p = image.data();
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
        return corrupt("bad checkpoint magic in " + origin, 0);
    }
    const std::uint32_t version = io::load_u32(p + kOffVersion);
    if (version != kVersion) {
        return corrupt("unsupported checkpoint version " +
                           std::to_string(version) + " in " + origin +
                           " (only sealed version 2 is read)",
                       kOffVersion);
    }
    if (size < kHeaderBytes + kSealBytes) {
        return truncated("checkpoint image of " + std::to_string(size) +
                             " bytes from '" + origin +
                             "' is shorter than header + seal footer",
                         size);
    }
    CheckpointFrame f;
    CheckpointHeader& h = f.header;
    h.state_id = io::load_u32(p + 12);
    h.state_fingerprint = io::load_u64(p + 16);
    h.unit_count = io::load_u64(p + 24);
    h.cursor = io::load_u64(p + 32);
    h.delivered_batches = io::load_u64(p + 40);
    h.backpressure_waits = io::load_u64(p + 48);
    h.park_wait_us = io::load_u64(p + 56);
    h.drained_inline = io::load_u64(p + 64);
    h.abandoned_workers = io::load_u64(p + 72);
    h.scrub.scanned = io::load_u64(p + 80);
    h.scrub.corrupt = io::load_u64(p + 88);
    h.scrub.repaired = io::load_u64(p + 96);
    f.record_bytes = io::load_u32(p + kOffRecordBytes);
    f.shard_count = io::load_u32(p + 108);
    const std::uint64_t state_bytes = io::load_u64(p + 112);
    if (f.record_bytes == 0) {
        return corrupt("zero stats record size in " + origin,
                       kOffRecordBytes);
    }

    // Size cross-checks before anything is trusted.  R * (1 + S) cannot
    // overflow for 32-bit R and S; the state size is a full u64, so it is
    // only ever compared against what is left of the body, never added.
    const std::uint64_t body = size - kHeaderBytes - kSealBytes;
    const std::uint64_t records = std::uint64_t{f.record_bytes} *
                                  (std::uint64_t{f.shard_count} + 1);
    if (records > body || state_bytes > body - records) {
        return truncated("stats records of " + std::to_string(records) +
                             " bytes + state image of " +
                             std::to_string(state_bytes) +
                             " bytes promised; the body of " + origin +
                             " holds " + std::to_string(body) + " bytes",
                         size);
    }
    const std::uint64_t footer = kHeaderBytes + records + state_bytes;
    if (state_bytes < body - records) {
        return corrupt(std::to_string(size - footer - kSealBytes) +
                           " trailing bytes past the seal footer in " +
                           origin,
                       footer + kSealBytes);
    }
    f.records = image.subspan(kHeaderBytes, records);
    f.state = image.subspan(kHeaderBytes + records, state_bytes);

    const auto section = [&](const char* name, std::uint64_t begin,
                             std::uint64_t len, int slot) {
        return SectionCheck{name, begin, begin + len,
                            io::load_u32(p + footer + 4 * slot),
                            crc_of(image.subspan(begin, len))};
    };
    f.sections = {section("header", 0, kHeaderBytes, 0),
                  section("stats records", kHeaderBytes, records, 1),
                  section("state image", kHeaderBytes + records, state_bytes,
                          2),
                  section("seal footer", footer, 12, 3)};
    for (const std::size_t i : {3, 0, 1, 2}) {
        const SectionCheck& s = f.sections[i];
        if (!s.ok()) {
            f.seal = corrupt(std::string(s.name) + " CRC mismatch in " +
                                 origin + ": stored " +
                                 std::to_string(s.stored) + ", computed " +
                                 std::to_string(s.computed),
                             s.begin);
            break;
        }
    }
    return f;
}

Status verify_checkpoint_image(std::span<const std::byte> image,
                               const std::string& origin) {
    Expected<CheckpointFrame> frame = parse_checkpoint_frame(image, origin);
    return frame.is_ok() ? frame.value().seal : frame.status();
}

}  // namespace p4lru::replay
