// Replay buffer D of Algorithm 1 plus generalized advantage estimation.
#ifndef CEWS_AGENTS_ROLLOUT_H_
#define CEWS_AGENTS_ROLLOUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace cews::agents {

/// One stored experience [s_t, u_t, v_t, r_t] (Algorithm 1, line 14) plus
/// the behavior policy's log-prob and value estimate for PPO.
struct Transition {
  std::vector<float> state;  // encoded s_t
  std::vector<int> moves;    // v_t^w per worker
  std::vector<int> charges;  // u_t^w per worker (0/1)
  float log_prob = 0.0f;     // log pi_old(a_t | s_t), joint over workers
  float value = 0.0f;        // V(s_t) under the behavior policy
  float reward = 0.0f;       // r_t = r^int + r^ext (Eqn 10)
  bool done = false;
};

/// A packed, contiguous minibatch: the training hot path consumes these
/// flat arrays directly (PpoAgent::ComputeLoss, RndCuriosity::Loss) instead
/// of gathering transition-by-transition. `states` stacks the encoded states
/// row-major, ready to adopt as an [B, ...] tensor; the index arrays use
/// int64_t so they feed nn::GatherLastDim without conversion.
struct MiniBatch {
  int64_t batch = 0;       ///< Number of transitions B.
  int64_t state_size = 0;  ///< Flat size of one encoded state.
  int num_workers = 0;     ///< Workers W per transition.

  std::vector<float> states;           ///< [B * state_size]
  std::vector<int64_t> move_indices;   ///< [B * W]
  std::vector<int64_t> charge_indices; ///< [B * W]
  std::vector<float> log_probs;        ///< [B] behavior log pi_old
  std::vector<float> values;           ///< [B] behavior V(s_t)
  std::vector<float> rewards;          ///< [B]
  std::vector<uint8_t> dones;          ///< [B] 0/1
  /// [B] source buffer index of each row (GatherBatch fills it; empty in a
  /// hand-built batch). PpoAgent::ComputeLoss runs the trunk once per
  /// distinct index.
  std::vector<int64_t> indices;

  /// Filled only when the source buffer had advantages computed.
  std::vector<float> advantages;  ///< [B]
  std::vector<float> returns;     ///< [B]
};

/// Episode replay buffer; cleared at the start of each episode
/// (Algorithm 1, line 3).
class RolloutBuffer {
 public:
  void Add(Transition t) { transitions_.push_back(std::move(t)); }

  /// Reconstructs a buffer from its raw parts (the distributed transport's
  /// unpack path). `advantages`/`returns` must both be empty or both hold
  /// exactly one entry per transition.
  static RolloutBuffer FromParts(std::vector<Transition> transitions,
                                 std::vector<float> advantages,
                                 std::vector<float> returns);

  /// Pre-sizes the transition (and, when advantages were computed, the
  /// advantage/return) storage for `total` entries — the merge path reserves
  /// once instead of growing through every Append.
  void Reserve(size_t total);

  /// Concatenates `other`'s transitions (and, when present, advantages /
  /// returns) after this buffer's, leaving `other` empty. Episode
  /// boundaries stay intact via the stored done flags; compute advantages
  /// per source buffer *before* appending — GAE must not bridge episodes.
  void Append(RolloutBuffer&& other);

  void Clear();
  size_t size() const { return transitions_.size(); }
  bool empty() const { return transitions_.empty(); }
  const Transition& operator[](size_t i) const { return transitions_[i]; }

  /// Computes GAE(gamma, lambda) advantages and discounted returns G_t
  /// (Eqn 11). `last_value` bootstraps a truncated (non-done) final step.
  void ComputeAdvantages(float gamma, float gae_lambda, float last_value);

  /// Advantage estimates A_t; valid after ComputeAdvantages.
  const std::vector<float>& advantages() const { return advantages_; }
  /// Return targets G_t for the value loss; valid after ComputeAdvantages.
  const std::vector<float>& returns() const { return returns_; }

  /// Draws a minibatch of `batch` indices: a random permutation prefix when
  /// batch <= size, otherwise sampling with replacement (the paper's batch
  /// sizes can exceed one episode's T transitions, Table II).
  /// CHECK-fails with a clear message on an empty buffer or batch == 0.
  std::vector<size_t> SampleIndices(size_t batch, Rng& rng) const;

  /// Packs the transitions at `idx` into one contiguous MiniBatch.
  /// CHECK-fails on an empty buffer or empty index list.
  MiniBatch GatherBatch(const std::vector<size_t>& idx) const;

  /// SampleIndices + GatherBatch: draws and packs a minibatch in one step —
  /// the update hot path of the chief-employee trainer.
  MiniBatch SampleBatch(size_t batch, Rng& rng) const;

  /// Packs every transition, in order (the async trainer's full-episode
  /// learner pass). CHECK-fails on an empty buffer.
  MiniBatch PackAll() const;

 private:
  std::vector<Transition> transitions_;
  std::vector<float> advantages_;
  std::vector<float> returns_;
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_ROLLOUT_H_
