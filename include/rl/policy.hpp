#pragma once
// Policy networks: the paper's kernel-based network (a small MLP applied
// with shared weights to every observable job — per-job scoring, order
// equivariant) plus the Table IV baselines: flat MLPs v1-v3 and a
// LeNet-style convolutional head. All parameters live in one flat float
// vector; logits() and backward() never allocate after construction.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rl/observation.hpp"
#include "util/rng.hpp"

namespace rlsched::rl {

enum class PolicyKind { Kernel, MlpV1, MlpV2, MlpV3, LeNet };

std::string policy_kind_name(PolicyKind k);

class Policy {
 public:
  virtual ~Policy() = default;

  /// One logit per observable slot. Masking happens in the caller.
  ///
  /// Precondition: every padded slot (index >= obs.count) has all-zero
  /// features, as ObservationBuilder writes them. The kernel policy scores
  /// only the window's live prefix and gives every slot past it the logit
  /// of the padded slot at index count; on such windows that is bitwise
  /// what scoring all 128 slots gives.
  virtual Logits logits(const Observation& obs) const = 0;

  /// Accumulate d(loss)/d(params) for d(loss)/d(logits) into `gparams`
  /// (length parameter_count()). Reuses the activations of the most recent
  /// logits() call — callers must pair backward() with a logits() on the
  /// same observation (the PPO update loop does).
  ///
  /// Precondition: dlogits of masked slots (index >= obs.count) are +-0,
  /// as PPO's coef * softmax_masked(...) makes them (masked probabilities
  /// are exactly 0). The kernel policy back-propagates only the live
  /// prefix; under this precondition the accumulated gradient is bitwise
  /// the full-width one.
  virtual void backward(const Observation& obs, const Logits& dlogits,
                        float* gparams) const = 0;

  /// Score `n` stacked observation windows in ONE call. `out` is
  /// window-major: the logits of window k land at
  /// out[k * kMaxObservable + j]. Row k is bitwise identical to
  /// logits(*obs[k]) — batching can never change a decision — and the
  /// zero-padding precondition of logits() applies to every window. The
  /// kernel policy runs its layer stack window by window over each
  /// window's live prefix; the MLP baselines batch along the sample axis;
  /// the default loops logits(). Batch scratch grows to the largest n ever
  /// seen, then is reused — the steady-state loop performs no allocation.
  virtual void logits_batch(const Observation* const* obs, std::size_t n,
                            float* out) const;

  /// Prewarm batch scratch for up to `n` windows so subsequent batched
  /// calls never allocate (zero-alloc loops size everything up front; the
  /// default no-op suits policies whose fallback batched path has no batch
  /// scratch).
  virtual void reserve_batch(std::size_t n) const { (void)n; }

  /// True when backward_batch() reuses the activations of the most recent
  /// logits_batch() instead of recomputing per window. The PPO update takes
  /// its batched-chunk path only for such policies; the others keep the
  /// original per-sample pairing (no hidden extra forwards).
  virtual bool supports_batched_update() const { return false; }

  /// Accumulate gradients for the batch scored by the MOST RECENT
  /// logits_batch() on the same (obs, n). `dlogits` is window-major like
  /// logits_batch()'s output, with the masked-slot precondition of
  /// backward() on every window. Windows with win_active[k] == 0 (when
  /// non-null) contribute nothing — bitwise identical to skipping their
  /// backward() call, which is how the PPO update drops clip-saturated
  /// samples. Gradient reductions are order-stable per window (window
  /// order, lane-stratified within — see nn/ops.hpp), so the accumulated
  /// gradient is bitwise identical to sequential per-window backward()
  /// calls: batch size never leaks into trained parameters.
  virtual void backward_batch(const Observation* const* obs, std::size_t n,
                              const float* dlogits,
                              const std::uint8_t* win_active,
                              float* gparams) const;

  virtual PolicyKind kind() const = 0;

  // --- int8 quantized inference (see nn/quant.hpp) ---
  //
  // Quantize-on-load: enable_quant() snapshots the CURRENT parameters
  // into packed int8 weights and calibrates static activation scales from
  // the given observations; parameter updates after that point do not
  // flow into the quantized path until it is re-enabled. The float path
  // is untouched and remains the default — with quantization disabled
  // every logits_quant* call is the exact float computation, so schedules
  // are bitwise unchanged.

  /// True for policies with a native int8 path (the kernel policy).
  virtual bool supports_quant() const { return false; }

  /// Quantize current weights and calibrate activation scales from `n`
  /// representative observations (n == 0 falls back to unit scales).
  /// Returns false (and stays on float) for unsupported policies.
  virtual bool enable_quant(const Observation* const* calib, std::size_t n) {
    (void)calib;
    (void)n;
    return false;
  }
  virtual void disable_quant() {}
  virtual bool quant_enabled() const { return false; }

  /// Quantized counterparts of logits() / logits_batch(). Batched rows
  /// are bitwise identical to the unbatched quantized forward; with
  /// quantization disabled both defer to the float path exactly.
  virtual Logits logits_quant(const Observation& obs) const {
    return logits(obs);
  }
  virtual void logits_quant_batch(const Observation* const* obs,
                                  std::size_t n, float* out) const {
    logits_batch(obs, n, out);
  }

  std::size_t parameter_count() const { return params_.size(); }
  std::vector<float>& param_vector() { return params_; }
  const std::vector<float>& param_vector() const { return params_; }

 protected:
  std::vector<float> params_;
};

/// Build a policy for a `max_observable`-slot window (must not exceed
/// kMaxObservable; the bundled benches pass rl::kMaxObservable).
std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    std::size_t max_observable,
                                    util::Rng& rng);

}  // namespace rlsched::rl
