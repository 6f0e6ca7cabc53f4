// Binary (de)serialization of parameter lists — checkpoints for the
// "parameters in DNNs are periodically saved for testing" step (Section VI-D).
#ifndef CEWS_NN_SERIALIZE_H_
#define CEWS_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace cews::nn {

/// What SaveParameters wrote: size and checksum of the finished file, so
/// callers (trainer checkpointing, the CLI) can log something an operator
/// can correlate with a server-side hot reload of the same file.
struct SaveInfo {
  uint64_t bytes = 0;   ///< Total file size, footer included.
  uint32_t crc32 = 0;   ///< CRC-32 over everything before the footer.
};

/// Writes every parameter (shape + float data) to `path`. Format:
///   magic "CEWSPAR1" | u64 tensor-count | per tensor: u64 ndim, i64 dims...,
///   f32 data... | footer "CRC1" + u32 crc32-of-all-preceding-bytes
///
/// Crash-safe: the file is assembled in memory, written to `<path>.tmp`, and
/// renamed over `path` only once complete — an interrupted save can never
/// truncate or corrupt an existing checkpoint at `path`.
Status SaveParameters(const std::string& path,
                      const std::vector<Tensor>& params,
                      SaveInfo* info = nullptr);

/// Loads a checkpoint written by SaveParameters into the given parameter
/// list. Shapes must match exactly (same architecture). Nothing is written
/// unless the whole file is valid: a rejected file leaves every parameter
/// as it was.
///
/// The CRC32 footer is required and verified before any header field is
/// trusted: a file without it (truncated, or written before the footer
/// existed) is rejected with IOError, so no unverified checkpoint reaches
/// a trainer, a broadcast or a live fleet. Corrupt files are rejected with
/// a descriptive Status — header fields are bounds-checked (ndim, dims,
/// payload size) before any allocation sized from them.
Status LoadParameters(const std::string& path,
                      const std::vector<Tensor>& params);

}  // namespace cews::nn

#endif  // CEWS_NN_SERIALIZE_H_
