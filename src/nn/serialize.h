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

/// Load-time policy knobs.
struct LoadOptions {
  /// Rejects (FailedPrecondition) any file without the CRC32 footer. Legacy
  /// footer-less checkpoints carry no integrity check at all, so paths that
  /// fan parameters out further — the distributed trainer's broadcast, the
  /// fleet publish loop — must never accept one: a torn or ancient file
  /// would otherwise replicate to every employee / shard unverified.
  bool require_crc = false;
};

/// Loads a checkpoint written by SaveParameters into the given parameter
/// list. Shapes must match exactly (same architecture). Nothing is written
/// unless the whole file is valid: a rejected file leaves every parameter
/// as it was.
///
/// When the CRC32 footer is present it is verified before any tensor is
/// touched; legacy footer-less "CEWSPAR1" files are still accepted (no
/// integrity check is possible for those) unless options.require_crc is
/// set. Corrupt or truncated files are rejected with a descriptive Status —
/// header fields are bounds-checked (ndim, dims, payload size) before any
/// allocation sized from them.
Status LoadParameters(const std::string& path,
                      const std::vector<Tensor>& params,
                      const LoadOptions& options = LoadOptions{});

}  // namespace cews::nn

#endif  // CEWS_NN_SERIALIZE_H_
