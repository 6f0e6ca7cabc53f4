// The one-shard fleet the serve tests run single-shard cases on:
// Fleet::Create with one shard, seed 11, one kernel thread and an
// unbounded queue (max_queue_depth 0; the fleet default bounds it at 1024).
#ifndef CEWS_TESTS_SERVE_ONE_SHARD_H_
#define CEWS_TESTS_SERVE_ONE_SHARD_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "agents/policy_net.h"
#include "common/check.h"
#include "serve/fleet.h"

namespace cews::serve {

inline FleetConfig OneShardConfig(const agents::PolicyNetConfig& net,
                                  int threads, int max_batch,
                                  int64_t delay_us,
                                  Precision precision = Precision::kFp32) {
  FleetConfig config;
  config.net = net;
  config.num_shards = 1;
  config.threads_per_shard = threads;
  config.max_batch = max_batch;
  config.max_queue_delay_us = delay_us;
  config.max_queue_depth = 0;
  config.runtime_threads = 1;
  config.seed = 11;
  config.precision = precision;
  return config;
}

inline std::unique_ptr<Fleet> MakeOneShardFleet(const FleetConfig& config) {
  Result<std::unique_ptr<Fleet>> fleet = Fleet::Create(config);
  CEWS_CHECK(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

}  // namespace cews::serve

#endif  // CEWS_TESTS_SERVE_ONE_SHARD_H_
