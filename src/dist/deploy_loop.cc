#include "dist/deploy_loop.h"

#include <memory>

#include "agents/eval.h"
#include "agents/quant_policy.h"
#include "common/check.h"
#include "common/log.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "obs/metrics.h"

namespace cews::dist {

namespace {

/// Rollout steps of the int8 agreement probe: enough encoded states
/// (eval_envs per step) to expose a quantization-induced behavior change,
/// cheap enough to run at every gate.
constexpr int kAgreementProbeSteps = 8;

}  // namespace

DeployLoop::DeployLoop(const DeployOptions& options,
                       const agents::TrainerConfig& config,
                       const env::Map& map, serve::Fleet* fleet)
    : options_(options),
      encoder_(config.encoder),
      eval_vec_(std::make_unique<env::VecEnv>(config.env, map,
                                              options.eval_envs)),
      eval_rng_(options.eval_seed),
      fleet_(fleet) {
  CEWS_CHECK(fleet_ != nullptr) << "DeployLoop needs a live fleet";
  CEWS_CHECK_GE(options_.publish_every, 1);
  CEWS_CHECK_GE(options_.eval_envs, 1);
}

Status DeployLoop::MaybePublish(int iteration, const agents::PolicyNet& net) {
  if ((iteration + 1) % options_.publish_every != 0) return Status::OK();

  static obs::Counter* const accepted_counter =
      obs::GetCounter("dist.publish.accepted");
  static obs::Counter* const rejected_counter =
      obs::GetCounter("dist.publish.rejected");
  static obs::Histogram* const eval_ns =
      obs::GetHistogram("dist.publish.eval_ns");

  double score = 0.0;
  {
    obs::ScopedTimerNs timer(eval_ns);
    const std::vector<agents::EvalResult> results = agents::EvaluatePolicyVec(
        net, *eval_vec_, encoder_, eval_rng_, options_.deterministic_eval);
    for (const agents::EvalResult& r : results) score += r.kappa;
    score /= static_cast<double>(results.size());
  }

  // The first gate has no published baseline — anything beats serving the
  // fleet's untrained epoch-0 parameters. After that, only candidates that
  // hold the last PUBLISHED score (minus min_delta) get through; a rejected
  // candidate leaves baseline and fleet untouched, so a later recovered
  // policy is judged against the model actually serving, not against the
  // regression.
  if (has_published_ && score < published_score_ - options_.min_delta) {
    ++rejected_;
    rejected_counter->Increment();
    CEWS_LOG(Info) << "deploy gate REJECTED iteration " << iteration
                   << ": kappa " << score << " < published "
                   << published_score_ << " - " << options_.min_delta;
    return Status::OK();
  }

  // Int8 fleets additionally gate on action agreement: quantize the
  // candidate exactly as Publish will, replay a short deterministic probe
  // rollout, and reject if the quantized policy's argmax decisions diverge
  // from fp32 beyond the configured tolerance. The probe uses its own rng
  // and deterministic actions, so it can never perturb training or eval
  // random streams.
  if (fleet_->precision() == serve::Precision::kInt8) {
    const nn::quant::QuantizedParams qp =
        agents::QuantizePolicyParams(net.Parameters());
    agents::AgreementStats stats;
    eval_vec_->Reset();
    Rng probe_rng(options_.eval_seed ^ 0xA5A5A5A55A5A5A5AULL);
    std::vector<const env::Env*> live;
    std::vector<int> live_index;
    for (int step = 0; step < kAgreementProbeSteps && !eval_vec_->AllDone();
         ++step) {
      live.clear();
      live_index.clear();
      for (int i = 0; i < eval_vec_->size(); ++i) {
        if (!eval_vec_->env(i).Done()) {
          live.push_back(&eval_vec_->env(i));
          live_index.push_back(i);
        }
      }
      const std::vector<float> states = encoder_.EncodeBatch(live);
      const int n = static_cast<int>(live.size());
      const agents::AgreementStats s =
          agents::ActionAgreementOnStates(net, qp, states, n);
      stats.decisions += s.decisions;
      stats.matched += s.matched;
      const std::vector<agents::ActResult> acts = agents::SamplePolicyBatch(
          net, states, n, probe_rng, /*deterministic=*/true);
      for (size_t k = 0; k < live_index.size(); ++k) {
        eval_vec_->env(live_index[k]).Step(acts[k].actions);
      }
    }
    static obs::Gauge* const agreement_gauge =
        obs::GetGauge("dist.publish.agreement");
    agreement_gauge->Set(stats.rate());
    if (stats.rate() < options_.agreement_min) {
      ++rejected_;
      rejected_counter->Increment();
      CEWS_LOG(Info) << "deploy gate REJECTED iteration " << iteration
                     << ": int8 action agreement " << stats.rate() << " < "
                     << options_.agreement_min << " (" << stats.matched
                     << "/" << stats.decisions << " decisions)";
      return Status::OK();
    }
  }

  CEWS_RETURN_IF_ERROR(
      nn::SaveParameters(options_.snapshot_path, net.Parameters()));
  CEWS_RETURN_IF_ERROR(
      fleet_->PublishFromFile(options_.scenario, options_.snapshot_path));
  published_score_ = score;
  has_published_ = true;
  ++accepted_;
  accepted_counter->Increment();
  uint64_t epoch = 0;
  if (Result<uint64_t> e = fleet_->Epoch(options_.scenario); e.ok()) {
    epoch = e.value();
  }
  CEWS_LOG(Info) << "deploy gate ACCEPTED iteration " << iteration
                 << ": kappa " << score << " published to scenario '"
                 << options_.scenario << "' epoch " << epoch;
  return Status::OK();
}

}  // namespace cews::dist
