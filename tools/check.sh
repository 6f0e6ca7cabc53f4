#!/usr/bin/env bash
# Repo health check: tier-1 build + tests, then a ThreadSanitizer build of
# the concurrency-sensitive targets (thread pool, parallel kernels, the
# expression-graph engine, both trainers, the serve and dist subsystems)
# and an ASan+UBSan build of the vectorized acting path (VecEnv, trainer
# core, both trainers) plus the graph, serve, dist and
# checkpoint-serialization tests, ending with the gradient-checkpointing
# bitwise guard and a multi-process train-dist smoke that must drive the
# publish gate through a reject-then-accept sequence into a live fleet,
# whose trained snapshot then backs an int8 serve smoke (the startup
# agreement gate must clear 99%). Both sanitizer passes include the int8
# quantization/kernel tests (nn_quant_test, agents_quant_forward_test,
# serve_quant_test), and an int8 guard requires the whole int8 serving
# forward (and the int8 trunk-FC product) to stay at or above fp32's speed.
# A portable build (-DCEWS_NATIVE_ARCH=OFF) runs the conv, LayerNorm and
# int8 spec tests on scalar lanes and scalar rows, which must give the
# bytes the vector lanes and row lanes give.
# Run from anywhere; builds land in build/, build-portable/, build-tsan/,
# and build-asan/.
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
skip_tsan=0
skip_asan=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && skip_tsan=1
  [[ "$arg" == "--skip-asan" ]] && skip_asan=1
done

echo "== tier-1: configure + build =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: ctest =="
(cd "$repo/build" && ctest --output-on-failure -j "$jobs")

echo "== nn: portable-lane conv, LayerNorm and int8 spec =="
# Without -march=native the direct conv kernels run on scalar std::fmaf
# lanes, the fused LayerNorm + ReLU kernel one row at a time and the int8
# kernels their scalar loops. They must match the same plain references the
# vector builds match in the tier-1 build, byte for byte.
cmake -B "$repo/build-portable" -S "$repo" \
  -DCEWS_NATIVE_ARCH=OFF \
  -DCEWS_BUILD_BENCHMARKS=OFF \
  -DCEWS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$repo/build-portable" -j "$jobs" --target nn_conv_test \
  nn_layer_norm_test nn_quant_test agents_quant_forward_test
"$repo/build-portable/tests/nn_conv_test"
"$repo/build-portable/tests/nn_layer_norm_test"
"$repo/build-portable/tests/nn_quant_test"
"$repo/build-portable/tests/agents_quant_forward_test"

echo "== obs: tracing overhead guard =="
# Budget (see DESIGN.md "Observability"): enabling tracing may add at most
# ~5% to the matmul micro-kernel; the always-on metrics path (what you pay
# with tracing *disabled*) is strictly cheaper than that — a branch plus a
# pair of relaxed counter bumps per kernel call. Machine noise on shared CI
# easily exceeds a few percent, so an overshoot is logged, never fatal.
if [[ -x "$repo/build/bench/bench_micro_nn" ]]; then
  bench_filter='BM_MatMul/n:128/threads:1$'
  run_bench() {  # $1 = CEWS_OBS_TRACE value ("" to leave unset)
    local out
    out="$(CEWS_OBS_TRACE="${1:-}" "$repo/build/bench/bench_micro_nn" \
      --benchmark_filter="$bench_filter" \
      --benchmark_min_time=0.1 2>/dev/null |
      awk '/BM_MatMul/ {print $2; exit}')"
    echo "${out:-0}"
  }
  off_ns="$(run_bench "")"
  on_ns="$(run_bench 1)"
  if [[ "$off_ns" != 0 && "$on_ns" != 0 ]]; then
    overhead="$(awk -v a="$off_ns" -v b="$on_ns" \
      'BEGIN {printf "%.1f", (b - a) / a * 100.0}')"
    echo "matmul n=128: tracing off ${off_ns} ns, on ${on_ns} ns" \
         "(tracing adds ${overhead}%; budget 5%)"
    if awk -v o="$overhead" 'BEGIN {exit !(o > 5.0)}'; then
      echo "WARNING: tracing overhead ${overhead}% exceeds the 5% budget" \
           "(informational only — rerun on an idle machine before acting)"
    fi
  else
    echo "could not parse bench output; skipping overhead comparison"
  fi
else
  echo "bench_micro_nn not built; skipping overhead guard"
fi

echo "== nn: int8 serving guard =="
# The quantized serve path's reason to exist is beating fp32. Run the kernel
# sweep (CEWS_BENCH_KERNELS=1) and require its int8 rows to be present and
# at or above fp32's speed: the trunk-FC product, and the whole serving
# forward of the paper's net (PolicyNet::Forward against QuantPolicyForward
# at batch 8/11/16, sides alternated, medians). Machine noise can flatter or
# punish a single run, so the hard floor here is 1.0x (a regression below
# parity is a real bug, not noise); ROADMAP item 4 records the measured
# forward ratios against its 1.3x bar.
if [[ -x "$repo/build/bench/bench_micro_nn" ]]; then
  kernels_out="$(cd "$repo/build" && CEWS_BENCH_KERNELS=1 \
    ./bench/bench_micro_nn --benchmark_filter=NONE 2>/dev/null |
    grep -E 'serve_(fc_fwd|policy).*(fc +m=|net +batch=)' || true)"
  echo "$kernels_out"
  int8_rows="$(echo "$kernels_out" | grep -c 'int8' || true)"
  if [[ "$int8_rows" -lt 5 ]]; then
    echo "FAIL: expected >=5 int8 rows in the sweep (got ${int8_rows})"
    exit 1
  fi
  if echo "$kernels_out" | awk '{for (i=1;i<=NF;i++) if ($i == "speedup")
      {s=$(i+1); sub(/x$/, "", s); if (s + 0 < 1.0) exit 1}}'; then
    echo "int8 rows all at or above fp32 parity"
  else
    echo "FAIL: an int8 serving row regressed below fp32 parity"
    exit 1
  fi
else
  echo "bench_micro_nn not built; skipping int8 serving guard"
fi

echo "== serve: request-tracing overhead guard =="
# The disabled-tracing serve path pays one relaxed atomic load per request
# (budget: <=1% on p99); with --trace-out each request additionally records
# four tagged spans. Open-loop p99 at this scale is dominated by batching
# delay and scheduler noise, so like the matmul guard this is informational:
# a big delta means "rerun on an idle machine", not "fail the check".
if [[ -x "$repo/build/tools/cews" ]]; then
  serve_p99() {  # $1 = extra args
    # shellcheck disable=SC2086
    "$repo/build/tools/cews" serve --scenario open-field --mode open \
      --arrival-rps 2000 --duration 1 --clients 1000 --shards 2 \
      --seed 7 $1 2>/dev/null |
      awk -F'|' '/^\| [0-9]/ {gsub(/ /, "", $12); print $12; exit}'
  }
  off_p99="$(serve_p99 "")"
  on_p99="$(serve_p99 "--trace-out $repo/build/check_serve_trace.json")"
  if [[ -n "$off_p99" && -n "$on_p99" ]]; then
    delta="$(awk -v a="$off_p99" -v b="$on_p99" \
      'BEGIN {printf "%.1f", (b - a) / a * 100.0}')"
    echo "open-loop p99: tracing off ${off_p99} us, on ${on_p99} us" \
         "(tracing adds ${delta}%)"
    if awk -v d="$delta" 'BEGIN {exit !(d > 10.0)}'; then
      echo "WARNING: request tracing moved open-loop p99 by ${delta}%" \
           "(informational only — rerun on an idle machine before acting)"
    fi
  else
    echo "could not parse serve output; skipping serve overhead comparison"
  fi
  rm -f "$repo/build/check_serve_trace.json"
else
  echo "cews CLI not built; skipping serve overhead guard"
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== skipping TSan pass (--skip-tsan) =="
else
  echo "== tsan: configure + build (tests only) =="
  cmake -B "$repo/build-tsan" -S "$repo" \
    -DCEWS_SANITIZE=thread \
    -DCEWS_BUILD_BENCHMARKS=OFF \
    -DCEWS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" --target \
    common_thread_pool_test nn_parallel_determinism_test nn_gemm_test \
    nn_conv_test nn_layer_norm_test nn_workspace_test \
    nn_quant_test agents_quant_forward_test nn_graph_test \
    agents_graph_equivalence_test agents_trainer_test agents_async_test \
    obs_metrics_test obs_trace_test obs_integration_test \
    obs_rolling_test obs_flight_test \
    serve_batcher_test serve_server_test serve_fleet_test serve_trace_test \
    serve_quant_test dist_transport_test dist_trainer_equivalence_test

  echo "== tsan: concurrency tests =="
  (cd "$repo/build-tsan" && ctest --output-on-failure -j "$jobs" -R \
    "common_thread_pool_test|nn_parallel_determinism_test|nn_gemm_test|nn_conv_test|nn_layer_norm_test|nn_workspace_test|nn_quant_test|agents_quant_forward_test|nn_graph_test|agents_graph_equivalence_test|agents_trainer_test|agents_async_test|obs_metrics_test|obs_trace_test|obs_integration_test|obs_rolling_test|obs_flight_test|serve_batcher_test|serve_server_test|serve_fleet_test|serve_trace_test|serve_quant_test|dist_transport_test|dist_trainer_equivalence_test")
fi

if [[ "$skip_asan" == 1 ]]; then
  echo "== skipping ASan+UBSan pass (--skip-asan) =="
else
  echo "== asan+ubsan: configure + build (tests only) =="
  cmake -B "$repo/build-asan" -S "$repo" \
    -DCEWS_SANITIZE=address,undefined \
    -DCEWS_BUILD_BENCHMARKS=OFF \
    -DCEWS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-asan" -j "$jobs" --target \
    env_vec_env_test agents_trainer_core_test agents_vec_equivalence_test \
    agents_trainer_test agents_async_test nn_gemm_test nn_conv_test \
    nn_layer_norm_test nn_workspace_test nn_quant_test \
    agents_quant_forward_test nn_graph_test agents_graph_equivalence_test \
    nn_serialize_test obs_rolling_test obs_flight_test \
    serve_batcher_test serve_server_test serve_fleet_test serve_trace_test \
    serve_quant_test dist_transport_test dist_trainer_equivalence_test

  echo "== asan+ubsan: vec acting + serve + dist path tests =="
  (cd "$repo/build-asan" && ctest --output-on-failure -j "$jobs" -R \
    "env_vec_env_test|agents_trainer_core_test|agents_vec_equivalence_test|agents_trainer_test|agents_async_test|nn_gemm_test|nn_conv_test|nn_layer_norm_test|nn_workspace_test|nn_quant_test|agents_quant_forward_test|nn_graph_test|agents_graph_equivalence_test|nn_serialize_test|obs_rolling_test|obs_flight_test|serve_batcher_test|serve_server_test|serve_fleet_test|serve_trace_test|serve_quant_test|dist_transport_test|dist_trainer_equivalence_test")

  echo "== graph: checkpoint bitwise guard =="
  # Gradient checkpointing must never change training numerics: replaying
  # the recompute-from-boundary plan has to reproduce the keep-everything
  # plan bit for bit (same creation-order backward). Runs the dedicated
  # equivalence filter in the plain build so a planner regression fails the
  # check even when both sanitizer passes are skipped.
  "$repo/build/tests/agents_graph_equivalence_test" \
    --gtest_filter='*CheckpointBitwise*'
fi

echo "== dist: multi-process train-dist + publish-gate smoke =="
# End-to-end exercise of the distributed trainer: a chief forks two
# employee processes, trains 8 iterations over a unix socket, and the
# deploy gate (every 2 iterations) evaluates each candidate before
# publishing into a live fleet. Seed 8 is chosen because its kappa curve
# dips and recovers, so the gate must REJECT at least one snapshot and
# later ACCEPT again — proving both gate branches and the re-publish path.
# The whole run is bitwise deterministic, so this sequence is stable.
if [[ -x "$repo/build/tools/cews" ]]; then
  smoke_out="$("$repo/build/tools/cews" train-dist --spawn 2 \
    --iterations 8 --publish-every 2 --horizon 20 --pois 30 --batch 32 \
    --envs-per-employee 1 --seed 8 \
    --snapshot "$repo/build/check_dist_snapshot.bin" \
    --address "unix:/tmp/cews_check_dist_$$.sock" 2>&1)" || {
    echo "$smoke_out"
    echo "FAIL: train-dist smoke run exited non-zero"
    exit 1
  }
  gate_seq="$(echo "$smoke_out" | grep -o 'deploy gate [A-Z]*' |
    awk '{print $3}' | paste -sd' ' -)"
  echo "publish gate sequence: ${gate_seq}"
  if ! echo "$gate_seq" | grep -q 'REJECTED.*ACCEPTED'; then
    echo "$smoke_out"
    echo "FAIL: expected a REJECTED publish followed by a later ACCEPTED" \
         "(got: ${gate_seq})"
    exit 1
  fi
  fleet_line="$(echo "$smoke_out" | grep 'fleet check:')"
  echo "$fleet_line"
  if ! echo "$fleet_line" | grep -q 'errors=0'; then
    echo "$smoke_out"
    echo "FAIL: fleet served errors after publish (${fleet_line})"
    exit 1
  fi
  echo "== serve: int8 agreement smoke (trained checkpoint) =="
  # Serve the snapshot the dist smoke just trained at int8: the startup
  # gate replays a deterministic rollout and refuses to serve below 99%
  # fp32-argmax agreement, so a quantization regression fails the check
  # with a real (trained, non-random) policy.
  agree_out="$("$repo/build/tools/cews" serve --scenario earthquake-site \
    --ckpt "$repo/build/check_dist_snapshot.bin" --precision int8 \
    --clients 4 --requests 8 2>&1)" || {
    echo "$agree_out"
    echo "FAIL: int8 serve smoke exited non-zero (agreement gate?)"
    exit 1
  }
  echo "$agree_out" | grep 'int8 agreement:' || {
    echo "$agree_out"
    echo "FAIL: int8 serve smoke printed no agreement line"
    exit 1
  }
  rm -f "$repo/build/check_dist_snapshot.bin"
else
  echo "FAIL: cews CLI not built; dist smoke cannot run"
  exit 1
fi

echo "== all checks passed =="
