#ifndef ZERODB_NN_SERIALIZE_H_
#define ZERODB_NN_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace zerodb::nn {

/// 64-bit FNV-1a of `bytes`: the checksum that ends every weight file.
uint64_t WeightFileChecksum(std::span<const char> bytes);

/// Writes float sections to a binary file in host byte order: a uint64 magic
/// spelling "ZDBNN" plus the three-digit format version (002; version 001
/// stored one rows, cols, values record per tensor and no checksum), the
/// section count and each section's float count (uint64), every section's
/// floats, then WeightFileChecksum of all the preceding bytes. Models own
/// their hyperparameters; this only persists floats, so load must be called
/// on a structurally identical model.
Status SaveParameters(std::span<const std::span<const float>> sections,
                      const std::string& path);

/// Loads a file written by SaveParameters into `sections`, whose sizes are
/// the float counts the model expects. The header is checked against them
/// and the checksum verified before any float is decoded; then every value
/// must be finite. Fails on another format version, a count mismatch, a
/// truncated file, trailing bytes, a checksum mismatch or a NaN/Inf. All or
/// nothing: on failure no section is written.
Status LoadParameters(std::span<const std::span<float>> sections,
                      const std::string& path);

}  // namespace zerodb::nn

#endif  // ZERODB_NN_SERIALIZE_H_
