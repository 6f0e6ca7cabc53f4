// cews::dist — payload (de)serialization of the distributed trainer: what
// goes inside kHello/kParams/kRollout frames.
//
// Exactness contract: every float/double crosses the wire as its raw bit
// pattern (memcpy, little-endian both sides — the only platforms this repo
// targets), so pack -> unpack is the identity on values. This is what makes
// the fork-mode distributed run bitwise-identical to the in-process
// reference (TrainDistReference): no text formatting, no rounding, ever.
//
// Unpack functions are defensive: every length is bounds-checked against
// the remaining payload before any allocation is sized from it, and
// structural invariants (advantages matching transition counts, per-worker
// array sizes) are validated — a frame that passed the CRC can still be a
// version-skewed peer's message.
#ifndef CEWS_DIST_WIRE_H_
#define CEWS_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/employee.h"
#include "agents/rollout.h"
#include "agents/trainer_config.h"
#include "common/result.h"
#include "env/map.h"

namespace cews::dist {

/// kHello handshake: the employee announces its rank and the hash of its
/// (config, map) pair; the chief echoes it back in kWelcome. A mismatch
/// means the two processes would train different problems — fatal.
struct Hello {
  uint32_t rank = 0;
  uint64_t config_hash = 0;
};

/// kParams broadcast: flat trainable values of the global policy net and
/// (when an intrinsic module is configured) its trainable parameters.
/// Frozen parts (curiosity embedding, RND target) are never shipped — they
/// replicate across processes via the shared seed derivations.
struct ParamUpdate {
  uint64_t iteration = 0;
  std::vector<float> policy;
  std::vector<float> intrinsic;
};

/// Per-iteration episode aggregates one employee reports alongside its
/// buffers (agents::Employee::Rollout's stats).
using agents::RolloutStats;

/// kRollout payload: everything one employee's iteration produced — one
/// GAE-completed buffer per environment instance, the curiosity samples
/// collected during the rollout (spatial-curiosity mode only), and the
/// episode stats.
struct RolloutPayload {
  uint32_t rank = 0;
  uint64_t iteration = 0;
  std::vector<agents::RolloutBuffer> buffers;
  std::vector<agents::CuriositySample> samples;
  RolloutStats stats;
};

std::string PackHello(const Hello& hello);
Result<Hello> UnpackHello(const std::string& payload);

std::string PackParams(const ParamUpdate& update);
Result<ParamUpdate> UnpackParams(const std::string& payload);

std::string PackRollout(const RolloutPayload& payload);
Result<RolloutPayload> UnpackRollout(const std::string& payload);

/// Checks a decoded rollout against the receiver's normalized `config`
/// (IOError naming the first misfit): envs_per_employee buffers of
/// env.horizon transitions each (an episode is exactly horizon steps), all
/// with advantages; states of the encoder's size; num_workers moves in
/// [0, num_moves) and charges in {0, 1} per transition; curiosity samples
/// whose worker, cells and move are in range. UnpackRollout checks only
/// lengths, and the learner CHECK-aborts on data shaped for another
/// problem, so the chief runs this on every payload before learning.
Status ValidateRollout(const RolloutPayload& payload,
                       const agents::TrainerConfig& config);

/// Fingerprint of the training problem: every TrainerConfig field that
/// shapes the computation plus the full map geometry, CRC-folded. Two
/// processes with equal hashes run the same problem; the handshake rejects
/// anything else before a single parameter crosses the wire.
uint64_t ConfigHash(const agents::TrainerConfig& config,
                    const env::Map& map);

}  // namespace cews::dist

#endif  // CEWS_DIST_WIRE_H_
