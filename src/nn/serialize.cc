#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/string_util.h"

namespace zerodb::nn {

namespace {

/// The format version SaveParameters writes and LoadParameters reads.
constexpr uint32_t kWeightFormatVersion = 2;

/// A magic's top five bytes spell "ZDBNN" and its low three the format
/// version in ASCII digits: version 2 is "ZDBNN002" read as a big-endian
/// number, and version 1 files start with the same prefix.
constexpr uint64_t kMagicPrefix = 0x5a44424e4eULL;

uint64_t MagicFor(uint32_t version) {
  uint64_t magic = kMagicPrefix;
  for (uint32_t divisor : {100u, 10u, 1u}) {
    magic = (magic << 8) | ('0' + version / divisor % 10);
  }
  return magic;
}

/// The format version a magic names, or -1 when it is no weight file's.
int64_t VersionOf(uint64_t magic) {
  if (magic >> 24 != kMagicPrefix) return -1;
  int64_t version = 0;
  for (int shift = 16; shift >= 0; shift -= 8) {
    const uint64_t digit = (magic >> shift) & 0xff;
    if (digit < '0' || digit > '9') return -1;
    version = version * 10 + static_cast<int64_t>(digit - '0');
  }
  return version;
}

void AppendU64(uint64_t value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

uint64_t WeightFileChecksum(std::span<const char> bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Status SaveParameters(std::span<const std::span<const float>> sections,
                      const std::string& path) {
  std::string bytes;
  AppendU64(MagicFor(kWeightFormatVersion), &bytes);
  AppendU64(sections.size(), &bytes);
  for (std::span<const float> section : sections) {
    AppendU64(section.size(), &bytes);
  }
  for (std::span<const float> section : sections) {
    bytes.append(reinterpret_cast<const char*>(section.data()),
                 section.size_bytes());
  }
  AppendU64(WeightFileChecksum(bytes), &bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status LoadParameters(std::span<const std::span<float>> sections,
                      const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  size_t offset = 0;
  auto read_u64 = [&](uint64_t* value) {
    if (bytes.size() - offset < sizeof(*value)) return false;
    std::memcpy(value, bytes.data() + offset, sizeof(*value));
    offset += sizeof(*value);
    return true;
  };
  const Status truncated = Status::IOError("truncated parameter file: " + path);

  // The header, against the model.
  uint64_t magic = 0;
  if (!read_u64(&magic)) return truncated;
  const int64_t version = VersionOf(magic);
  if (version < 0) {
    return Status::InvalidArgument("not a zerodb parameter file: " + path);
  }
  if (version != kWeightFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "weight file format version %lld is not supported (this build "
        "reads version %u): %s",
        static_cast<long long>(version), kWeightFormatVersion, path.c_str()));
  }
  uint64_t count = 0;
  if (!read_u64(&count)) return truncated;
  if (count != sections.size()) {
    return Status::InvalidArgument(
        StrFormat("section count mismatch: file has %llu, model has %zu",
                  static_cast<unsigned long long>(count), sections.size()));
  }
  size_t floats = 0;
  for (size_t i = 0; i < sections.size(); ++i) {
    uint64_t size = 0;
    if (!read_u64(&size)) return truncated;
    if (size != sections[i].size()) {
      return Status::InvalidArgument(StrFormat(
          "section %zu size mismatch: file has %llu floats, model has %zu", i,
          static_cast<unsigned long long>(size), sections[i].size()));
    }
    floats += sections[i].size();
  }

  // The length, then the checksum over everything before it.
  const size_t payload = floats * sizeof(float);
  const size_t expected = offset + payload + sizeof(uint64_t);
  if (bytes.size() < expected) return truncated;
  if (bytes.size() > expected) {
    return Status::InvalidArgument("trailing bytes after parameters: " + path);
  }
  uint64_t checksum = 0;
  std::memcpy(&checksum, bytes.data() + offset + payload, sizeof(checksum));
  if (checksum != WeightFileChecksum({bytes.data(), offset + payload})) {
    return Status::InvalidArgument("checksum mismatch: " + path);
  }

  // Every float is staged and checked before any section changes, so a
  // failed load leaves the caller's buffers as they were.
  std::vector<float> staged(floats);
  std::copy_n(bytes.data() + offset, payload,
              reinterpret_cast<char*>(staged.data()));
  const float* next = staged.data();
  for (size_t i = 0; i < sections.size(); ++i) {
    if (!std::all_of(next, next + sections[i].size(),
                     [](float v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(
          StrFormat("non-finite value in section %zu: %s", i, path.c_str()));
    }
    next += sections[i].size();
  }
  next = staged.data();
  for (std::span<float> section : sections) {
    std::copy(next, next + section.size(), section.begin());
    next += section.size();
  }
  return Status::OK();
}

}  // namespace zerodb::nn
