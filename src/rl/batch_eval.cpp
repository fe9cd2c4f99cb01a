#include "rl/batch_eval.hpp"

#include <algorithm>

#include "nn/ops.hpp"

namespace rlsched::rl {

void batched_argmax(const Policy& policy, const Observation* const* obs,
                    std::size_t n, float* logits_slab,
                    std::uint32_t* actions) {
  policy.logits_batch(obs, n, logits_slab);
  for (std::size_t k = 0; k < n; ++k) {
    actions[k] = static_cast<std::uint32_t>(
        nn::argmax_masked(logits_slab + k * kMaxObservable,
                          obs[k]->mask.data(), obs[k]->count));
  }
}

void batched_argmax_quant(const Policy& policy, const Observation* const* obs,
                          std::size_t n, float* logits_slab,
                          std::uint32_t* actions) {
  policy.logits_quant_batch(obs, n, logits_slab);
  for (std::size_t k = 0; k < n; ++k) {
    actions[k] = static_cast<std::uint32_t>(
        nn::argmax_masked(logits_slab + k * kMaxObservable,
                          obs[k]->mask.data(), obs[k]->count));
  }
}

GreedyBatch::GreedyBatch(std::size_t batch)
    : obs_(batch == 0 ? 1 : batch),
      obs_ptr_(obs_.size()),
      logits_(obs_.size() * kMaxObservable),
      actions_(obs_.size()) {
  for (std::size_t k = 0; k < obs_.size(); ++k) obs_ptr_[k] = &obs_[k];
}

const std::uint32_t* GreedyBatch::decide(const Policy& policy,
                                         const sim::SchedulingEnv* const* envs,
                                         std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) builder_.build_into(*envs[k], obs_[k]);
  batched_argmax(policy, obs_ptr_.data(), n, logits_.data(), actions_.data());
  return actions_.data();
}

BatchedEvaluator::BatchedEvaluator(const Policy& policy, std::size_t batch)
    : policy_(policy), greedy_(batch) {
  policy_.reserve_batch(greedy_.batch());
  alive_.reserve(greedy_.batch());
}

void BatchedEvaluator::evaluate(
    const std::vector<std::vector<trace::Job>>& seqs, int processors,
    bool backfill, sim::RunResult* out) {
  const sim::EnvConfig cfg{backfill, kMaxObservable};
  const std::size_t batch = greedy_.batch();
  for (std::size_t group = 0; group < seqs.size(); group += batch) {
    const std::size_t nb = std::min(batch, seqs.size() - group);
    while (envs_.size() < nb) envs_.emplace_back(processors, cfg);
    for (std::size_t k = 0; k < nb; ++k) {
      envs_[k].reconfigure(processors, cfg);
      envs_[k].reset(seqs[group + k]);
    }
    run(envs_.data(), nb);
    for (std::size_t k = 0; k < nb; ++k) out[group + k] = envs_[k].result();
  }
}

void BatchedEvaluator::run(sim::SchedulingEnv* envs, std::size_t n) {
  alive_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    if (!envs[k].done()) alive_.push_back(&envs[k]);
  }
  while (!alive_.empty()) {
    const std::uint32_t* actions =
        greedy_.decide(policy_, alive_.data(), alive_.size());
    std::size_t keep = 0;
    for (std::size_t w = 0; w < alive_.size(); ++w) {
      alive_[w]->step(actions[w]);
      if (!alive_[w]->done()) alive_[keep++] = alive_[w];
    }
    alive_.resize(keep);
  }
}

}  // namespace rlsched::rl
