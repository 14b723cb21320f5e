#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"

namespace zerodb::nn {

namespace {
constexpr uint64_t kMagic = 0x5a44424e4e303031ULL;  // "ZDBNN001"
}  // namespace

Status SaveParameters(const std::vector<Tensor>& parameters,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  auto write_u64 = [&out](uint64_t value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  write_u64(kMagic);
  write_u64(parameters.size());
  for (const Tensor& parameter : parameters) {
    write_u64(parameter.rows());
    write_u64(parameter.cols());
    out.write(reinterpret_cast<const char*>(parameter.data().data()),
              static_cast<std::streamsize>(parameter.size() * sizeof(float)));
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status LoadParameters(std::vector<Tensor> parameters,
                      const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  auto read_u64 = [&in](uint64_t* value) {
    in.read(reinterpret_cast<char*>(value), sizeof(*value));
    return static_cast<bool>(in);
  };
  const Status truncated = Status::IOError("truncated parameter file: " + path);
  uint64_t magic = 0;
  if (!read_u64(&magic)) return truncated;
  if (magic != kMagic) {
    return Status::InvalidArgument("not a zerodb parameter file: " + path);
  }
  uint64_t count = 0;
  if (!read_u64(&count)) return truncated;
  if (count != parameters.size()) {
    return Status::InvalidArgument(
        StrFormat("parameter count mismatch: file has %llu, model has %zu",
                  static_cast<unsigned long long>(count), parameters.size()));
  }
  // Every tensor lands in a staging buffer first; the parameters change only
  // once the whole file has been read, so a failed load leaves the model as
  // it was.
  std::vector<std::vector<float>> staged(parameters.size());
  for (size_t i = 0; i < parameters.size(); ++i) {
    const Tensor& parameter = parameters[i];
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!read_u64(&rows) || !read_u64(&cols)) return truncated;
    if (rows != parameter.rows() || cols != parameter.cols()) {
      return Status::InvalidArgument(StrFormat(
          "parameter shape mismatch: file (%llu, %llu) vs model %s",
          static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols),
          parameter.ShapeString().c_str()));
    }
    staged[i].resize(parameter.size());
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(parameter.size() * sizeof(float)));
    if (!in) return truncated;
    if (!std::all_of(staged[i].begin(), staged[i].end(),
                     [](float v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(
          StrFormat("non-finite value in parameter %zu: %s", i, path.c_str()));
    }
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    return Status::InvalidArgument("trailing bytes after parameters: " + path);
  }
  for (size_t i = 0; i < parameters.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(),
              parameters[i].mutable_data().begin());
  }
  return Status::OK();
}

}  // namespace zerodb::nn
