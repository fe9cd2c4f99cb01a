// Batched inference must be invisible in every result: for B in
// {1, 3, 8, 32} a trainer configured with inference batch width B produces
// BITWISE identical trajectories, metrics, and updated parameters to the
// unbatched (B=1) trainer, and every greedy evaluation — evaluate(),
// evaluate_batch(), evaluate_stream(), BatchedEvaluator at any width —
// reproduces an independent unbatched reference (one Policy::logits
// forward and one masked argmax per decision) bit for bit. Also gates the
// zero-allocation discipline of the batched decision step (pack + batched
// forward + per-window argmax, and GreedyBatch::decide) after warmup.
// Finally, an independent full-width oracle (plain nn:: dense layers over
// all 128 slots with the kernel policy's flat parameters) pins the kernel
// policy's live-prefix forward and backward bit for bit at every window
// occupancy — the checks above compare the policy only with itself.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "counting_alloc.hpp"

#include <vector>

#include "nn/ops.hpp"
#include "rl/batch_eval.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

#include "test_util.hpp"

namespace {

using namespace rlsched;

// Congested workload (multi-job windows at every decision) so batching has
// real windows to pack and gradients are non-trivial.
trace::Trace congested_trace() {
  util::Rng rng(99);
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 1200; ++i) {
    trace::Job j;
    j.id = i + 1;
    j.submit_time = 20.0 * i;
    j.requested_time = 600.0 + 4000.0 * rng.uniform();
    j.run_time = j.requested_time * rng.uniform(0.5, 1.0);
    j.requested_procs = 1 + static_cast<int>(rng.below(48));
    j.user = 1 + static_cast<int>(rng.below(6));
    jobs.push_back(j);
  }
  return trace::Trace("congested", 128, std::move(jobs));
}

rl::PPOConfig test_config(std::size_t batch, rl::PolicyKind kind) {
  rl::PPOConfig cfg;
  cfg.policy = kind;
  cfg.seq_len = 64;
  cfg.trajectories_per_epoch = 8;
  cfg.pi_iters = 2;
  cfg.v_iters = 2;
  cfg.minibatch = 0;  // full batch -> multiple chunks per update step
  cfg.seed = 7;
  cfg.batch = batch;
  return cfg;
}

void check_epochs_identical(const rl::PPOTrainer& a, const rl::PPOTrainer& b) {
  CHECK(a.steps() == b.steps());
  CHECK(a.trajectory_ends() == b.trajectory_ends());
  for (std::size_t i = 0; i < a.steps(); ++i) {
    const rl::Observation& oa = a.observation(i);
    const rl::Observation& ob = b.observation(i);
    CHECK(oa.count == ob.count);
    CHECK(oa.mask == ob.mask);
    CHECK(oa.features == ob.features);  // bitwise float equality
  }
  CHECK(a.actions() == b.actions());
  CHECK(a.logps() == b.logps());
  CHECK(a.values() == b.values());
  CHECK(a.advantages() == b.advantages());
  CHECK(a.returns() == b.returns());
  CHECK(a.terminal_rewards() == b.terminal_rewards());
  CHECK(a.policy().param_vector() == b.policy().param_vector());
  CHECK(a.value_params() == b.value_params());
}

// Training: batch width B must be bitwise invisible in trajectories,
// metrics, and UPDATED parameters (collection lockstep + batched update
// chunks both reduce order-stably).
void check_training_batch_invariance(rl::PolicyKind kind,
                                     const std::vector<std::size_t>& widths,
                                     std::size_t epochs) {
  const auto trace = congested_trace();
  rl::PPOTrainer reference(trace, test_config(1, kind));
  std::vector<double> ref_metric;
  for (std::size_t e = 0; e < epochs; ++e) {
    ref_metric.push_back(reference.train_epoch().avg_metric);
  }
  for (const std::size_t B : widths) {
    rl::PPOTrainer batched(trace, test_config(B, kind));
    for (std::size_t e = 0; e < epochs; ++e) {
      CHECK(batched.train_epoch().avg_metric == ref_metric[e]);
    }
    check_epochs_identical(reference, batched);
  }
}

// The unbatched reference every greedy evaluation must reproduce: one
// window, one Policy::logits forward, one masked argmax per decision.
sim::RunResult unbatched_greedy(const rl::Policy& policy,
                                const std::vector<trace::Job>& seq,
                                int processors, bool backfill) {
  sim::SchedulingEnv env(processors,
                         sim::EnvConfig{backfill, rl::kMaxObservable});
  env.reset(seq);
  const rl::ObservationBuilder builder;
  while (!env.done()) {
    const rl::Observation obs = builder.build(env);
    const rl::Logits logits = policy.logits(obs);
    env.step(nn::argmax_masked(logits.data(), obs.mask.data(),
                               rl::kMaxObservable));
  }
  return env.result();
}

// Evaluation sweeps: evaluate(), evaluate_batch(), evaluate_stream() and
// BatchedEvaluator at every batch width == the unbatched reference,
// bitwise, with backfilling on and off.
void check_eval_batch_invariance() {
  const auto trace = congested_trace();
  rl::PPOTrainer trainer(trace, test_config(8, rl::PolicyKind::Kernel));
  trainer.train_epoch();  // move off the random init

  util::Rng rng(17);
  std::vector<std::vector<trace::Job>> seqs;
  for (std::size_t i = 0; i < 7; ++i) {
    seqs.push_back(trace.sample_sequence(rng, 96));
  }
  for (const bool backfill : {false, true}) {
    std::vector<sim::RunResult> unbatched;
    for (const auto& s : seqs) {
      unbatched.push_back(
          unbatched_greedy(trainer.policy(), s, trace.processors(), backfill));
    }
    const auto swept =
        trainer.evaluate_batch(seqs, trace.processors(), backfill);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      CHECK(sim::bitwise_equal(swept[i], unbatched[i]));
      CHECK(sim::bitwise_equal(
          trainer.evaluate(seqs[i], trace.processors(), backfill),
          unbatched[i]));
      // A Trace is a JobSource over its own jobs; a small chunk forces
      // mid-episode refills.
      trace::Trace source("seq", trace.processors(), seqs[i]);
      CHECK(sim::bitwise_equal(
          trainer.evaluate_stream(source, trace.processors(), backfill, 16),
          swept[i]));
    }
    for (const std::size_t B : {1u, 3u, 8u, 32u}) {
      rl::BatchedEvaluator evaluator(trainer.policy(), B);
      std::vector<sim::RunResult> batched(seqs.size());
      evaluator.evaluate(seqs, trace.processors(), backfill, batched.data());
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        CHECK(sim::bitwise_equal(batched[i], unbatched[i]));
      }
    }
  }
}

// The batched decision loop (pack + one batched forward + per-window
// argmax) must be allocation-free once its scratch is warm, and every
// batched action must equal the unbatched argmax.
void check_batched_decision_zero_alloc() {
  const auto trace = congested_trace();
  util::Rng rng(5);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  const rl::ObservationBuilder builder;

  constexpr std::size_t B = 32;
  std::vector<rl::Observation> obs(B);
  std::vector<const rl::Observation*> obs_ptr(B);
  sim::SchedulingEnv env(trace.processors());
  env.reset(trace.sequence(0, 256));
  for (std::size_t k = 0; k < B; ++k) {
    builder.build_into(env, obs[k]);
    obs_ptr[k] = &obs[k];
    env.step(0);
  }
  std::vector<float> logits(B * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(B);

  rl::batched_argmax(*policy, obs_ptr.data(), B, logits.data(),
                     actions.data());  // warmup sizes the batch scratch
  const unsigned long long before = g_allocs;
  for (int round = 0; round < 3; ++round) {
    rl::batched_argmax(*policy, obs_ptr.data(), B, logits.data(),
                       actions.data());
  }
  const unsigned long long after = g_allocs;
  if (after != before) {
    std::fprintf(stderr, "batched decision loop allocated %llu times\n",
                 after - before);
    std::exit(1);
  }

  for (std::size_t k = 0; k < B; ++k) {
    const rl::Logits single = policy->logits(obs[k]);
    const std::size_t a = nn::argmax_masked(single.data(),
                                            obs[k].mask.data(),
                                            rl::kMaxObservable);
    CHECK(actions[k] == a);
    // The batched logits row itself is bitwise identical too.
    for (std::size_t j = 0; j < rl::kMaxObservable; ++j) {
      CHECK(logits[k * rl::kMaxObservable + j] == single[j]);
    }
  }

  // GreedyBatch::decide over B live environments: allocation-free once
  // warm, and each action is the unbatched argmax of that env's window.
  std::vector<sim::SchedulingEnv> envs;
  envs.reserve(B);
  std::vector<const sim::SchedulingEnv*> env_ptr(B);
  for (std::size_t k = 0; k < B; ++k) {
    envs.emplace_back(trace.processors());
    envs[k].reset(trace.sequence(8 * k, 256));
    for (std::size_t s = 0; s < k % 5; ++s) envs[k].step(0);
    env_ptr[k] = &envs[k];
  }
  rl::GreedyBatch greedy(B);
  greedy.decide(*policy, env_ptr.data(), B);  // warmup
  const unsigned long long decide_before = g_allocs;
  const std::uint32_t* decided = nullptr;
  for (int round = 0; round < 3; ++round) {
    decided = greedy.decide(*policy, env_ptr.data(), B);
  }
  const unsigned long long decide_after = g_allocs;
  if (decide_after != decide_before) {
    std::fprintf(stderr, "GreedyBatch::decide allocated %llu times\n",
                 decide_after - decide_before);
    std::exit(1);
  }
  for (std::size_t k = 0; k < B; ++k) {
    const rl::Observation o = builder.build(envs[k]);
    const rl::Logits single = policy->logits(o);
    CHECK(decided[k] == nn::argmax_masked(single.data(), o.mask.data(),
                                          rl::kMaxObservable));
  }
}


// Full-width reference for the kernel policy: the shared per-job MLP
// {6, 32, 16, 8, 1} run with plain nn::dense_batch_forward/backward over
// all 128 slots, reading the policy's flat parameters (each layer's W then
// b). Shares nothing with the policy but the nn:: kernels.
class FullWidthKernelOracle {
 public:
  static constexpr std::size_t J = rl::kMaxObservable;
  static constexpr std::array<std::size_t, 5> kL = {rl::kJobFeatures, 32, 16,
                                                    8, 1};

  FullWidthKernelOracle() {
    std::size_t off = 0;
    for (std::size_t l = 0; l < 4; ++l) {
      w_off_[l] = off;
      off += kL[l] * kL[l + 1];
      b_off_[l] = off;
      off += kL[l + 1];
      act_[l].resize(kL[l + 1] * J);
      dact_[l].resize(kL[l + 1] * J);
    }
    param_count_ = off;
  }

  std::size_t param_count() const { return param_count_; }

  void forward(const float* params, const rl::Observation& obs,
               float* logits) {
    const float* in = obs.features.data();
    for (std::size_t l = 0; l < 4; ++l) {
      nn::dense_batch_forward(params + w_off_[l], params + b_off_[l], in,
                              act_[l].data(), kL[l + 1], kL[l], J,
                              /*relu=*/l < 3);
      in = act_[l].data();
    }
    std::memcpy(logits, in, J * sizeof(float));
  }

  /// Pairs with the latest forward() on the same observation.
  void backward(const float* params, const rl::Observation& obs,
                const float* dlogits, float* gparams) {
    std::memcpy(dact_[3].data(), dlogits, J * sizeof(float));
    for (std::size_t l = 4; l-- > 0;) {
      const float* a_in = l == 0 ? obs.features.data() : act_[l - 1].data();
      float* d_in = l == 0 ? nullptr : dact_[l - 1].data();
      nn::dense_batch_backward(params + w_off_[l], a_in, act_[l].data(),
                               dact_[l].data(), d_in, gparams + w_off_[l],
                               gparams + b_off_[l], kL[l + 1], kL[l], J,
                               /*relu=*/l < 3);
    }
  }

 private:
  std::array<std::size_t, 4> w_off_{}, b_off_{};
  std::array<std::vector<float>, 4> act_, dact_;
  std::size_t param_count_ = 0;
};

bool bitwise_same(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// A window with `count` real jobs laid out like ObservationBuilder's:
// nonnegative features and a valid-slot bias on live slots, all-zero
// features and mask on padding.
rl::Observation window_with_count(util::Rng& rng, std::size_t count) {
  rl::Observation obs;
  obs.features.fill(0.0f);
  obs.mask.fill(0);
  obs.count = static_cast<std::uint32_t>(count);
  constexpr std::size_t J = rl::kMaxObservable;
  for (std::size_t j = 0; j < count; ++j) {
    for (std::size_t f = 0; f + 1 < rl::kJobFeatures; ++f) {
      obs.features[f * J + j] = static_cast<float>(rng.uniform());
    }
    obs.features[(rl::kJobFeatures - 1) * J + j] = 1.0f;
    obs.mask[j] = 1;
  }
  return obs;
}

// PPO-shaped dlogits for one window: coef * softmax_masked(logits), minus
// coef at the taken action (a live slot, when there is one). Masked slots
// get coef * 0 == +-0, the precondition of the live-prefix backward.
void ppo_dlogits(const float* logits, const rl::Observation& obs, float coef,
                 util::Rng& rng, float* dl) {
  std::array<float, rl::kMaxObservable> probs{};
  nn::softmax_masked(logits, obs.mask.data(), probs.data(),
                     rl::kMaxObservable);
  for (std::size_t j = 0; j < rl::kMaxObservable; ++j) dl[j] = coef * probs[j];
  if (obs.count > 0) dl[rng.below(obs.count)] -= coef;
}

// The kernel policy's live-prefix forward and backward == the full-width
// oracle, bitwise, for every window occupancy 0..128: logits rows single
// and batched (B = 8, mixed occupancies per batch, one window skipped per
// batch via win_active), and PPO-shaped gradients for both signs of coef.
void check_kernel_full_width_oracle() {
  constexpr std::size_t J = rl::kMaxObservable;
  constexpr std::size_t B = 8;
  util::Rng rng(23);
  const auto policy =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  FullWidthKernelOracle oracle;
  CHECK(policy->parameter_count() == oracle.param_count());
  // Unit-scale weights everywhere (the init scales the head by 0.01), so
  // ReLU patterns and logits vary across slots.
  for (float& p : policy->param_vector()) {
    p = 0.5f * static_cast<float>(rng.normal());
  }
  const float* params = policy->param_vector().data();
  const std::size_t np = policy->parameter_count();

  // Occupancies 0..128 in a strided order so every batch mixes small and
  // large windows.
  constexpr std::size_t kWindows = J + 1;
  std::vector<rl::Observation> windows;
  for (std::size_t i = 0; i < kWindows; ++i) {
    windows.push_back(window_with_count(rng, (i * 37) % kWindows));
  }

  std::vector<float> ref_logits(J), got(B * J), dl(B * J);
  std::vector<float> g(np), g_ref(np);
  std::vector<const rl::Observation*> ptr(B);
  std::array<std::uint8_t, B> active{};
  for (const float coef_sign : {1.0f, -1.0f}) {
    for (std::size_t start = 0; start < kWindows; start += B) {
      const std::size_t n = std::min(B, kWindows - start);
      for (std::size_t k = 0; k < n; ++k) ptr[k] = &windows[start + k];

      // Batched form: one logits_batch, one backward_batch.
      policy->logits_batch(ptr.data(), n, got.data());
      std::fill(g.begin(), g.end(), 0.0f);
      std::fill(g_ref.begin(), g_ref.end(), 0.0f);
      for (std::size_t k = 0; k < n; ++k) {
        const float coef = coef_sign * static_cast<float>(
                                           rng.uniform(0.01, 2.0));
        ppo_dlogits(got.data() + k * J, *ptr[k], coef, rng,
                    dl.data() + k * J);
        active[k] = (start / B + k) % 5 == 3 ? 0 : 1;
      }
      policy->backward_batch(ptr.data(), n, dl.data(), active.data(),
                             g.data());
      for (std::size_t k = 0; k < n; ++k) {
        oracle.forward(params, *ptr[k], ref_logits.data());
        CHECK(bitwise_same(got.data() + k * J, ref_logits.data(), J));
        if (active[k] == 0) continue;
        oracle.backward(params, *ptr[k], dl.data() + k * J, g_ref.data());
      }
      CHECK(bitwise_same(g.data(), g_ref.data(), np));

      // Single-window form: logits + backward per window, same dlogits.
      std::fill(g.begin(), g.end(), 0.0f);
      for (std::size_t k = 0; k < n; ++k) {
        const rl::Logits single = policy->logits(*ptr[k]);
        CHECK(bitwise_same(single.data(), got.data() + k * J, J));
        if (active[k] == 0) continue;
        rl::Logits dsingle;
        std::memcpy(dsingle.data(), dl.data() + k * J, sizeof(dsingle));
        policy->backward(*ptr[k], dsingle, g.data());
      }
      CHECK(bitwise_same(g.data(), g_ref.data(), np));
    }
  }
}

}  // namespace

int main() {
  check_training_batch_invariance(rl::PolicyKind::Kernel, {3, 8, 32}, 2);
  // One epoch and one width suffice for the remaining code paths: MlpV1
  // covers the sample-axis batched forward/backward, LeNet covers batched
  // collection combined with the NON-batched per-sample update branch
  // (supports_batched_update() == false). The kernel policy above carries
  // the full gate.
  check_training_batch_invariance(rl::PolicyKind::MlpV1, {8}, 1);
  check_training_batch_invariance(rl::PolicyKind::LeNet, {8}, 1);
  check_eval_batch_invariance();
  check_batched_decision_zero_alloc();
  check_kernel_full_width_oracle();
  std::puts("batched inference bitwise invariance + zero-alloc + full-width oracle: OK");
  return 0;
}
