// Kernel-policy decision latency: float32 vs int8 quantized inference,
// and the data for the CI perf gate (scripts/perf_gate.py).
//
// Measures decisions/sec (and µs per decision) at batch widths B in
// {1, 8, 32} for three paths over two observation pools:
//
//   kernel_f32         the float batched-argmax decision (pack + logits +
//                      masked argmax) over FULL windows (a standing
//                      backlog, 128 real jobs per window), i.e. the
//                      Table IX baseline path.
//   kernel_int8        the quantized decision over the same full windows:
//                      u8 activation packing, VNNI / scalar int8 MACs with
//                      fused requantization, dequantized head, same masked
//                      argmax. The CI gate requires int8 to be >= 5x the
//                      float decisions/sec at B=32 on hosts whose quant
//                      backend matches the recorded baseline.
//   kernel_f32_sparse  the float decision over SPARSE windows taken from
//                      greedy episodes of 256-job Lublin-1 sequences (a
//                      few percent of the 128 slots live, like a served
//                      request). The float forward runs over each window's
//                      live prefix only, so the CI gate requires a sparse
//                      decision to cost at most a set fraction
//                      (bench/baseline.json) of a full one at B=1 and B=8.
//
// Self-checks before timing (a perf number from a broken engine is
// meaningless; either violation exits nonzero):
//   * the full pool's windows are full and the sparse pool's mean
//     occupancy is below 10% (the rows measure what they are named for);
//   * the quantized batched rows are BITWISE equal to the unbatched
//     quantized forward (batching is a throughput knob, never semantics);
//   * every quantized logit is within a per-logit error bound of the
//     float logit (8% of the fixture's logit amax, the bound gated
//     bitwise-strictly in tests/test_quant.cpp);
//   * with quantization disabled the quant entry points reproduce the
//     float path bit-for-bit;
//   * the steady-state timed loops perform ZERO heap allocation
//     (counting global operator new).
//
// Output: a human table on stderr, and with --json a machine block on
// stdout carrying quant_isa and simd_lanes so the gate can tell a real
// regression from a host without the recorded backend (VNNI is a host
// property, unlike the build-property simd_lanes). RLSCHED_BENCH_SEED
// varies the workload.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "../tests/counting_alloc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "nn/ops.hpp"
#include "nn/quant.hpp"
#include "nn/simd.hpp"
#include "rl/batch_eval.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "sim/env.hpp"
#include "util/env.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rlsched;

constexpr std::size_t kPool = 160;  // observations per pool; divisible by 32
constexpr std::size_t kWidths[] = {1, 8, 32};
constexpr std::size_t kNumWidths = std::size(kWidths);
constexpr double kMinSeconds = 0.2;
// Best-of-N: throughput on shared CI hosts dips under neighbor
// interference but never exceeds the machine's true capability, so the
// max over repetitions is the low-noise estimator of each path's speed.
constexpr int kRepetitions = 3;

struct ObsPool {
  std::vector<rl::Observation> obs;
  std::vector<const rl::Observation*> ptr;
};

/// Decision points sampled from a standing backlog (every job submitted at
/// t = 0, as after an outage): kPool + 256 pending jobs keep every sampled
/// window full of real jobs, like the Table IX measurement.
ObsPool make_full_pool(std::uint64_t seed) {
  const auto trace = workload::make_trace("SDSC-SP2", kPool + 512, seed);
  std::vector<trace::Job> backlog = trace.sequence(0, kPool + 256);
  for (trace::Job& j : backlog) j.submit_time = 0.0;
  const rl::ObservationBuilder builder;
  sim::SchedulingEnv env(trace.processors());
  env.reset(backlog);
  ObsPool pool;
  pool.obs.resize(kPool);
  pool.ptr.resize(kPool);
  for (std::size_t k = 0; k < kPool; ++k) {
    builder.build_into(env, pool.obs[k]);
    pool.ptr[k] = &pool.obs[k];
    env.step(0);
  }
  return pool;
}

/// Decision points from real served-request trajectories: greedy episodes
/// of 256-job Lublin-1 sequences under `policy` with backfilling, every
/// 8th decision kept, so the pool spans whole episodes.
ObsPool make_sparse_pool(const rl::Policy& policy, std::uint64_t seed) {
  constexpr std::size_t kStride = 8;
  const auto trace = workload::make_trace("Lublin-1", 20000, seed);
  util::Rng rng(seed ^ 0x5BA5E);
  const rl::ObservationBuilder builder;
  sim::SchedulingEnv env(trace.processors(),
                         sim::EnvConfig{true, rl::kMaxObservable});
  ObsPool pool;
  pool.obs.resize(kPool);
  pool.ptr.resize(kPool);
  rl::Observation obs;
  std::size_t kept = 0;
  for (std::size_t step = 0; kept < kPool; ++step) {
    if (env.done() || step == 0) env.reset(trace.sample_sequence(rng, 256));
    builder.build_into(env, obs);
    if (step % kStride == 0) {
      pool.obs[kept] = obs;
      pool.ptr[kept] = &pool.obs[kept];
      ++kept;
    }
    const rl::Logits l = policy.logits(obs);
    env.step(nn::argmax_masked(l.data(), obs.mask.data(),
                               rl::kMaxObservable));
  }
  return pool;
}

double mean_occupancy(const ObsPool& pool) {
  double live = 0.0;
  for (const rl::Observation& o : pool.obs) live += o.count;
  return live / static_cast<double>(pool.obs.size() * rl::kMaxObservable);
}

template <typename F>
double decisions_per_sec(F&& sweep) {
  sweep();  // warmup: sizes every batch scratch
  const unsigned long long allocs_before = g_allocs;
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t decisions = 0;
    double elapsed = 0.0;
    do {
      sweep();
      decisions += kPool;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    } while (elapsed < kMinSeconds);
    best = std::max(best, static_cast<double>(decisions) / elapsed);
  }
  if (g_allocs != allocs_before) {
    std::fprintf(stderr,
                 "FATAL: timed decision loop allocated %llu times after "
                 "warmup\n",
                 g_allocs - allocs_before);
    std::exit(1);
  }
  return best;
}

void self_check(rl::Policy& policy, const ObsPool& pool) {
  // Quant OFF: the quant entry points must be the float path, bitwise.
  {
    const rl::Logits f = policy.logits(pool.obs[0]);
    const rl::Logits q = policy.logits_quant(pool.obs[0]);
    if (std::memcmp(f.data(), q.data(), sizeof(f)) != 0) {
      std::fprintf(stderr, "FATAL: quant-off path differs from float\n");
      std::exit(1);
    }
  }
  if (!policy.enable_quant(pool.ptr.data(), pool.ptr.size())) {
    std::fprintf(stderr, "FATAL: enable_quant failed\n");
    std::exit(1);
  }

  // Batched quant rows == unbatched quant forward, bitwise.
  std::vector<float> slab(32 * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(32);
  rl::batched_argmax_quant(policy, pool.ptr.data(), 32, slab.data(),
                           actions.data());
  for (std::size_t k = 0; k < 32; ++k) {
    const rl::Logits q = policy.logits_quant(pool.obs[k]);
    if (std::memcmp(slab.data() + k * rl::kMaxObservable, q.data(),
                    sizeof(q)) != 0) {
      std::fprintf(stderr, "FATAL: batched quant row %zu != unbatched\n", k);
      std::exit(1);
    }
  }

  // Per-logit error bound vs float (the strict per-window gates live in
  // tests/test_quant.cpp; here the bound guards against a mis-calibrated
  // fixture producing a fast-but-wrong perf number).
  float amax = 0.0f;
  for (const rl::Observation& o : pool.obs) {
    const rl::Logits f = policy.logits(o);
    for (std::size_t j = 0; j < o.count; ++j) {
      amax = std::max(amax, std::fabs(f[j]));
    }
  }
  const float tol = 0.08f * std::max(amax, 1e-3f);
  for (const rl::Observation& o : pool.obs) {
    const rl::Logits f = policy.logits(o);
    const rl::Logits q = policy.logits_quant(o);
    for (std::size_t j = 0; j < o.count; ++j) {
      if (std::fabs(q[j] - f[j]) > tol) {
        std::fprintf(stderr,
                     "FATAL: quant logit error %.4g beyond bound %.4g\n",
                     static_cast<double>(std::fabs(q[j] - f[j])),
                     static_cast<double>(tol));
        std::exit(1);
      }
    }
  }
}

struct MetricRow {
  std::string name;
  double dps[kNumWidths];
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  const auto seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", 42, 0));
  util::Rng rng(seed ^ 0xD11C);
  const auto kernel =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  const ObsPool pool = make_full_pool(seed);
  const ObsPool sparse = make_sparse_pool(*kernel, seed);
  const double full_occ = mean_occupancy(pool);
  const double sparse_occ = mean_occupancy(sparse);
  if (full_occ != 1.0 || sparse_occ >= 0.1) {
    std::fprintf(stderr,
                 "FATAL: pool occupancy off: full %.3f (want 1), sparse "
                 "%.3f (want < 0.1)\n",
                 full_occ, sparse_occ);
    std::exit(1);
  }
  self_check(*kernel, pool);

  std::vector<float> logits(kPool * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(kPool);

  struct Path {
    const char* name;
    bool quant;
    const ObsPool* pool;
  };
  std::vector<MetricRow> rows;
  for (const Path& path : {Path{"kernel_f32", false, &pool},
                           Path{"kernel_int8", true, &pool},
                           Path{"kernel_f32_sparse", false, &sparse}}) {
    MetricRow row;
    row.name = path.name;
    const rl::Observation* const* ptr = path.pool->ptr.data();
    for (std::size_t wi = 0; wi < kNumWidths; ++wi) {
      const std::size_t B = kWidths[wi];
      row.dps[wi] = decisions_per_sec([&] {
        for (std::size_t g = 0; g < kPool; g += B) {
          if (path.quant) {
            rl::batched_argmax_quant(*kernel, ptr + g, B, logits.data(),
                                     actions.data() + g);
          } else {
            rl::batched_argmax(*kernel, ptr + g, B, logits.data(),
                               actions.data() + g);
          }
        }
      });
    }
    rows.push_back(row);
  }

  std::fprintf(stderr,
               "decision latency: f32 vs int8 (quant isa %s, SIMD lanes "
               "%zu, pools of %zu windows: full, sparse at %.1f%% "
               "occupancy, seed %llu)\n",
               nn::quant_isa(), nn::kSimdLanes, kPool, 100.0 * sparse_occ,
               static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "%-18s %12s %12s %12s %10s %10s %10s\n", "path",
               "B=1 dec/s", "B=8 dec/s", "B=32 dec/s", "B=1 us", "B=8 us",
               "B=32 us");
  for (const MetricRow& r : rows) {
    std::fprintf(stderr, "%-18s %12.0f %12.0f %12.0f %10.3f %10.3f %10.3f\n",
                 r.name.c_str(), r.dps[0], r.dps[1], r.dps[2],
                 1e6 / r.dps[0], 1e6 / r.dps[1], 1e6 / r.dps[2]);
  }
  std::fprintf(stderr, "int8 vs f32: %.2fx at B=1, %.2fx at B=32\n",
               rows[1].dps[0] / rows[0].dps[0],
               rows[1].dps[2] / rows[0].dps[2]);
  std::fprintf(stderr,
               "sparse vs full f32 time per decision: %.3f at B=1, %.3f at "
               "B=8\n",
               rows[0].dps[0] / rows[2].dps[0],
               rows[0].dps[1] / rows[2].dps[1]);

  if (json) {
    std::printf("{\n  \"bench\": \"bench_decision_latency\",\n");
    std::printf("  \"simd_lanes\": %zu,\n  \"quant_isa\": \"%s\",\n",
                nn::kSimdLanes, nn::quant_isa());
    std::printf("  \"pool_windows\": %zu,\n", kPool);
    std::printf("  \"sparse_occupancy\": %.4f,\n", sparse_occ);
    std::printf("  \"metrics\": {\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::printf("    \"%s\": {\"b1\": %.1f, \"b8\": %.1f, \"b32\": "
                  "%.1f}%s\n",
                  rows[r].name.c_str(), rows[r].dps[0], rows[r].dps[1],
                  rows[r].dps[2], r + 1 < rows.size() ? "," : "");
    }
    std::printf("  }\n}\n");
  }
  return 0;
}
