#include "p4lru/trace/trace_io.hpp"

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>

#include "p4lru/trace/trace_source.hpp"

namespace p4lru::trace {
namespace {

constexpr std::array<char, 8> kMagic = {'P', '4', 'L', 'R', 'U',
                                        'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;

void put_record(std::ofstream& os, const PacketRecord& r) {
    std::array<std::uint8_t, kTraceRecordBytes> buf{};
    encode_trace_record(r, buf.data());
    os.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
}

}  // namespace

PacketRecord decode_trace_record(const std::uint8_t* buf) {
    PacketRecord r;
    std::size_t off = 0;
    const auto get = [&](void* p, std::size_t n) {
        std::memcpy(p, buf + off, n);
        off += n;
    };
    get(&r.ts, 8);
    get(&r.flow.src_ip, 4);
    get(&r.flow.dst_ip, 4);
    get(&r.flow.src_port, 2);
    get(&r.flow.dst_port, 2);
    get(&r.flow.proto, 1);
    off += 3;
    get(&r.len, 4);
    return r;
}

void encode_trace_record(const PacketRecord& r, std::uint8_t* buf) {
    std::size_t off = 0;
    const auto put = [&](const void* p, std::size_t n) {
        std::memcpy(buf + off, p, n);
        off += n;
    };
    put(&r.ts, 8);
    put(&r.flow.src_ip, 4);
    put(&r.flow.dst_ip, 4);
    put(&r.flow.src_port, 2);
    put(&r.flow.dst_port, 2);
    put(&r.flow.proto, 1);
    std::memset(buf + off, 0, 3);  // padding
    off += 3;
    put(&r.len, 4);
}

Expected<TraceHeaderInfo> validate_trace_header(const std::uint8_t* hdr,
                                                std::uint64_t file_size,
                                                const std::string& path) {
    if (file_size < kTraceHeaderBytes) {
        return Status(ErrorCode::kTruncated,
                      "file of " + std::to_string(file_size) +
                          " bytes is shorter than the header",
                      file_size);
    }
    if (std::memcmp(hdr, kMagic.data(), kMagic.size()) != 0) {
        return Status(ErrorCode::kCorrupt, "bad magic in " + path, 0);
    }
    std::uint32_t version = 0;
    std::memcpy(&version, hdr + kMagic.size(), sizeof(version));
    if (version != kVersion) {
        return Status(ErrorCode::kCorrupt,
                      "unsupported version " + std::to_string(version),
                      kMagic.size());
    }
    std::uint64_t count = 0;
    std::memcpy(&count, hdr + kMagic.size() + sizeof(version), sizeof(count));
    // Sanity-cap the count against the actual file size: a flipped bit in
    // the count field must not drive a huge allocation or a long read loop.
    const std::uint64_t body = file_size - kTraceHeaderBytes;
    if (count > body / kTraceRecordBytes) {
        return Status(ErrorCode::kCorrupt,
                      "record count " + std::to_string(count) +
                          " exceeds file body of " + std::to_string(body) +
                          " bytes (" +
                          std::to_string(body / kTraceRecordBytes) +
                          " records)",
                      kMagic.size() + sizeof(version));
    }
    if (body != count * kTraceRecordBytes) {
        return Status(ErrorCode::kTruncated,
                      "file body is " + std::to_string(body) +
                          " bytes; header promises " +
                          std::to_string(count * kTraceRecordBytes),
                      file_size);
    }
    return TraceHeaderInfo{count, file_size};
}

void write_trace(const std::string& path,
                 const std::vector<PacketRecord>& records) {
    errno = 0;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        throw std::runtime_error(
            io_error_errno("write_trace: cannot open", path).to_string());
    }
    os.write(kMagic.data(), kMagic.size());
    os.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
    const std::uint64_t count = records.size();
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& r : records) put_record(os, r);
    os.flush();
    if (!os) {
        throw std::runtime_error(
            io_error_errno("write_trace: write failed to", path)
                .to_string());
    }
}

Expected<std::vector<PacketRecord>> read_trace_checked(
    const std::string& path) {
    Expected<std::unique_ptr<MmapSource>> src = MmapSource::open(path);
    if (!src.is_ok()) return src.status();
    MmapSource& in = *src.value();
    std::vector<PacketRecord> out;
    out.reserve(static_cast<std::size_t>(in.size()));
    for (;;) {
        Expected<std::span<const PacketRecord>> batch =
            in.next_batch(kMaxBatchRecords);
        if (!batch.is_ok()) return batch.status();
        if (batch.value().empty()) return out;
        out.insert(out.end(), batch.value().begin(), batch.value().end());
    }
}

std::vector<PacketRecord> read_trace(const std::string& path) {
    auto r = read_trace_checked(path);
    if (!r.is_ok()) {
        throw std::runtime_error("read_trace: " + r.status().to_string() +
                                 " [" + path + "]");
    }
    return std::move(r).value();
}

}  // namespace p4lru::trace
