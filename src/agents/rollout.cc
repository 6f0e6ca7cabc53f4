#include "agents/rollout.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::agents {

RolloutBuffer RolloutBuffer::FromParts(std::vector<Transition> transitions,
                                       std::vector<float> advantages,
                                       std::vector<float> returns) {
  CEWS_CHECK_EQ(advantages.size(), returns.size())
      << "FromParts with mismatched advantage/return lengths";
  if (!advantages.empty()) {
    CEWS_CHECK_EQ(advantages.size(), transitions.size())
        << "FromParts advantages must cover every transition";
  }
  RolloutBuffer buffer;
  buffer.transitions_ = std::move(transitions);
  buffer.advantages_ = std::move(advantages);
  buffer.returns_ = std::move(returns);
  return buffer;
}

void RolloutBuffer::Reserve(size_t total) {
  transitions_.reserve(total);
  if (!advantages_.empty()) {
    advantages_.reserve(total);
    returns_.reserve(total);
  }
}

void RolloutBuffer::Clear() {
  transitions_.clear();
  advantages_.clear();
  returns_.clear();
}

void RolloutBuffer::Append(RolloutBuffer&& other) {
  CEWS_CHECK_EQ(advantages_.empty(), other.advantages_.empty())
      << "Append mixes buffers with and without computed advantages";
  transitions_.insert(transitions_.end(),
                      std::make_move_iterator(other.transitions_.begin()),
                      std::make_move_iterator(other.transitions_.end()));
  advantages_.insert(advantages_.end(), other.advantages_.begin(),
                     other.advantages_.end());
  returns_.insert(returns_.end(), other.returns_.begin(),
                  other.returns_.end());
  other.Clear();
}

void RolloutBuffer::ComputeAdvantages(float gamma, float gae_lambda,
                                      float last_value) {
  const size_t n = transitions_.size();
  CEWS_CHECK_GT(n, 0u) << "ComputeAdvantages on an empty RolloutBuffer";
  advantages_.assign(n, 0.0f);
  returns_.assign(n, 0.0f);
  float next_value = last_value;
  float next_advantage = 0.0f;
  for (size_t i = n; i-- > 0;) {
    const Transition& t = transitions_[i];
    const float not_done = t.done ? 0.0f : 1.0f;
    const float delta =
        t.reward + gamma * next_value * not_done - t.value;
    next_advantage = delta + gamma * gae_lambda * not_done * next_advantage;
    advantages_[i] = next_advantage;
    returns_[i] = next_advantage + t.value;
    next_value = t.value;
  }
}

std::vector<size_t> RolloutBuffer::SampleIndices(size_t batch,
                                                 Rng& rng) const {
  CEWS_CHECK(!transitions_.empty())
      << "SampleIndices on an empty RolloutBuffer: roll out at least one "
         "transition before updating";
  CEWS_CHECK_GT(batch, 0u) << "SampleIndices with batch == 0";
  const size_t n = transitions_.size();
  std::vector<size_t> idx;
  if (batch <= n) {
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), 0u);
    // Fisher-Yates prefix shuffle.
    for (size_t i = 0; i < batch; ++i) {
      const size_t j = i + static_cast<size_t>(rng.UniformInt(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(batch);
  } else {
    idx.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      idx.push_back(static_cast<size_t>(rng.UniformInt(n)));
    }
  }
  return idx;
}

MiniBatch RolloutBuffer::GatherBatch(const std::vector<size_t>& idx) const {
  CEWS_CHECK(!transitions_.empty())
      << "GatherBatch on an empty RolloutBuffer";
  CEWS_CHECK(!idx.empty()) << "GatherBatch with an empty index list";
  CEWS_TRACE_SCOPE("agents.PackBatch");
  static obs::Counter* const pack_calls =
      obs::GetCounter("rollout.pack.calls");
  static obs::Counter* const pack_transitions =
      obs::GetCounter("rollout.pack.transitions");
  static obs::Histogram* const pack_ns = obs::GetHistogram("rollout.pack_ns");
  const uint64_t t0 = Stopwatch::NowNs();
  pack_calls->Increment();
  pack_transitions->Add(idx.size());
  const bool has_advantages = advantages_.size() == transitions_.size();

  MiniBatch mb;
  mb.batch = static_cast<int64_t>(idx.size());
  mb.state_size = static_cast<int64_t>(transitions_[0].state.size());
  mb.num_workers = static_cast<int>(transitions_[0].moves.size());
  const size_t b = idx.size();
  const size_t w = static_cast<size_t>(mb.num_workers);
  mb.states.resize(b * static_cast<size_t>(mb.state_size));
  mb.move_indices.resize(b * w);
  mb.charge_indices.resize(b * w);
  mb.log_probs.resize(b);
  mb.values.resize(b);
  mb.rewards.resize(b);
  mb.dones.resize(b);
  mb.indices.resize(b);
  if (has_advantages) {
    mb.advantages.resize(b);
    mb.returns.resize(b);
  }
  for (size_t i = 0; i < b; ++i) {
    const size_t src = idx[i];
    CEWS_CHECK_LT(src, transitions_.size());
    const Transition& t = transitions_[src];
    CEWS_CHECK_EQ(static_cast<int64_t>(t.state.size()), mb.state_size);
    CEWS_CHECK_EQ(t.moves.size(), w);
    CEWS_CHECK_EQ(t.charges.size(), w);
    std::copy(t.state.begin(), t.state.end(),
              mb.states.begin() + i * static_cast<size_t>(mb.state_size));
    for (size_t j = 0; j < w; ++j) {
      mb.move_indices[i * w + j] = t.moves[j];
      mb.charge_indices[i * w + j] = t.charges[j];
    }
    mb.log_probs[i] = t.log_prob;
    mb.values[i] = t.value;
    mb.rewards[i] = t.reward;
    mb.dones[i] = t.done ? 1 : 0;
    mb.indices[i] = static_cast<int64_t>(src);
    if (has_advantages) {
      mb.advantages[i] = advantages_[src];
      mb.returns[i] = returns_[src];
    }
  }
  pack_ns->Record(Stopwatch::NowNs() - t0);
  return mb;
}

MiniBatch RolloutBuffer::SampleBatch(size_t batch, Rng& rng) const {
  CEWS_CHECK(!transitions_.empty())
      << "SampleBatch on an empty RolloutBuffer: roll out at least one "
         "transition before updating";
  return GatherBatch(SampleIndices(batch, rng));
}

MiniBatch RolloutBuffer::PackAll() const {
  CEWS_CHECK(!transitions_.empty()) << "PackAll on an empty RolloutBuffer";
  std::vector<size_t> idx(transitions_.size());
  std::iota(idx.begin(), idx.end(), 0u);
  return GatherBatch(idx);
}

}  // namespace cews::agents
