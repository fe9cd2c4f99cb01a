#include "rl/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "nn/quant.hpp"

namespace rlsched::rl {

std::string policy_kind_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::Kernel: return "kernel";
    case PolicyKind::MlpV1: return "mlp_v1";
    case PolicyKind::MlpV2: return "mlp_v2";
    case PolicyKind::MlpV3: return "mlp_v3";
    case PolicyKind::LeNet: return "lenet";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Base-class batched entry points: a correct (window-looping) fallback for
// policies without a native batched pass. logits_batch rows are trivially
// bitwise identical to logits(); backward_batch recomputes each window's
// forward before its backward (so it pairs with nothing), which is why
// supports_batched_update() defaults to false.
// ---------------------------------------------------------------------------

void Policy::logits_batch(const Observation* const* obs, std::size_t n,
                          float* out) const {
  for (std::size_t k = 0; k < n; ++k) {
    const Logits l = logits(*obs[k]);
    std::memcpy(out + k * kMaxObservable, l.data(), sizeof(l));
  }
}

void Policy::backward_batch(const Observation* const* obs, std::size_t n,
                            const float* dlogits,
                            const std::uint8_t* win_active,
                            float* gparams) const {
  Logits dl;
  for (std::size_t k = 0; k < n; ++k) {
    if (win_active != nullptr && win_active[k] == 0) continue;
    (void)logits(*obs[k]);  // refresh this window's activations
    std::memcpy(dl.data(), dlogits + k * kMaxObservable, sizeof(dl));
    backward(*obs[k], dl, gparams);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Kernel network: shared per-job MLP {features, 32, 16, 8, 1} evaluated as
// batched dense layers over the SoA job axis. Each slot is scored on its
// own with shared weights, so a padded slot adds nothing to any live
// slot's score: one forward and one backward run over the window's LIVE
// PREFIX only, cols = min(128, round_up(count + 1, kSimdLanes)) columns.
//
//  * Forward: padded slots have all-zero features (ObservationBuilder
//    zero-fills them), and the + 1 keeps one padded column inside the
//    prefix whenever count < 128, so logits [cols, 128) are copies of
//    logit[count] — every row is bitwise equal to a full-width forward.
//  * Backward: cols is a whole number of SIMD lanes, so the order-stable
//    window reductions keep their lane assignment and lane tree; a lane
//    accumulator starts at +0 and can never become -0, so the dropped
//    columns' terms (all +-0 when masked dlogits are +-0, which PPO's
//    coef * probs guarantees) never changed a bit. The gradient is
//    bitwise equal to a full-width backward.
//
// Batched entry points use WINDOW-BLOCKED scheduling: each window runs the
// full layer stack with its activation block (at most ~29 KB) L1-resident,
// writing into its slice of a window-major activation slab (retained for
// the paired backward). The alternative — one contiguous job axis through
// every layer, which the nn/ kernels fully support — was measured ~1.5x
// SLOWER at full width: this net's weights are ~6 KB (nothing to
// amortize, the batched win that carries the value net and the MLP
// baselines), while the layerwise batched activations spill L1 from B=2.
// Equivalence is unconditional either way: forwards are per-column exact
// and the window-order gradient reductions match sequential per-window
// backwards bitwise, so the schedule is a pure locality decision.
// ---------------------------------------------------------------------------
class KernelPolicy final : public Policy {
 public:
  explicit KernelPolicy(util::Rng& rng) {
    std::size_t off = 0;
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      w_off_[l] = off;
      off += kLayers[l] * kLayers[l + 1];
      b_off_[l] = off;
      off += kLayers[l + 1];
    }
    params_.resize(off);
    for (std::size_t l = 1; l < kLayers.size(); ++l) {
      act_off_[l - 1] = act_unit_;
      act_unit_ += kLayers[l] * kMaxObservable;
    }
    act_.resize(act_unit_);
    dact_.resize(act_unit_);
    x_.resize(kLayers[0] * kMaxObservable);
    const std::size_t last = kLayers.size() - 2;
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      const float scale = std::sqrt(2.0f / static_cast<float>(kLayers[l])) *
                          (l == last ? 0.01f : 1.0f);
      float* w = params_.data() + w_off_[l];
      for (std::size_t i = 0; i < kLayers[l] * kLayers[l + 1]; ++i) {
        w[i] = scale * static_cast<float>(rng.normal());
      }
    }
  }

  Logits logits(const Observation& obs) const override {
    Logits out;
    forward_window(obs, 0, out.data());
    return out;
  }

  void backward(const Observation& obs, const Logits& dlogits,
                float* gparams) const override {
    backward_window(obs, 0, dlogits.data(), gparams);
  }

  void logits_batch(const Observation* const* obs, std::size_t n,
                    float* out) const override {
    ensure_batch(n);
    for (std::size_t k = 0; k < n; ++k) {
      forward_window(*obs[k], k, out + k * kMaxObservable);
    }
  }

  void reserve_batch(std::size_t n) const override { ensure_batch(n); }

  bool supports_batched_update() const override { return true; }

  void backward_batch(const Observation* const* obs, std::size_t n,
                      const float* dlogits, const std::uint8_t* win_active,
                      float* gparams) const override {
    for (std::size_t k = 0; k < n; ++k) {
      if (win_active != nullptr && win_active[k] == 0) continue;
      backward_window(*obs[k], k, dlogits + k * kMaxObservable, gparams);
    }
  }

  PolicyKind kind() const override { return PolicyKind::Kernel; }

  // --- int8 path: per-layer packed weights + static calibrated scales ---
  //
  // The whole stack runs in nn/quant.hpp's group-packed u8 layout:
  // features quantize once, the three hidden layers requantize in place
  // (ping-pong between two 4 KB scratch slabs), and the 1-wide head
  // dequantizes straight into the logits row. Inference only — training
  // stays float, so enable_quant() is a snapshot of the current weights.

  bool supports_quant() const override { return true; }

  bool enable_quant(const Observation* const* calib,
                    std::size_t n) override {
    constexpr std::size_t J = kMaxObservable;
    const std::size_t layers = kLayers.size() - 1;
    // Static activation scales: amax over the calibration set of each
    // layer's float input (features, then each relu output), spread over
    // the full u8 range. Unit scales when uncalibrated keep the mapping
    // deterministic (just coarse). The live prefix holds a padded column
    // whenever the window has padding, and every padded column carries the
    // same activations, so its maxima are the full window's.
    std::array<float, 4> amax{};
    Logits scratch;
    for (std::size_t s = 0; s < n; ++s) {
      const float* f = calib[s]->features.data();
      for (std::size_t i = 0; i < kLayers[0] * J; ++i) {
        amax[0] = std::max(amax[0], f[i]);
      }
      forward_window(*calib[s], 0, scratch.data());  // fills window 0's slab
      const std::size_t cols = live_cols(*calib[s]);
      for (std::size_t l = 0; l + 1 < layers; ++l) {
        const float* h = act_.data() + act_off_[l];
        for (std::size_t i = 0; i < kLayers[l + 1] * cols; ++i) {
          amax[l + 1] = std::max(amax[l + 1], h[i]);
        }
      }
    }
    for (std::size_t l = 0; l < layers; ++l) {
      const std::size_t groups = nn::quant_groups(kLayers[l]);
      wscale_[l] = nn::weight_scale(params_.data() + w_off_[l],
                                    kLayers[l] * kLayers[l + 1]);
      wq_[l].resize(kLayers[l + 1] * groups * nn::kQuantGroup);
      nn::pack_weights_s8(params_.data() + w_off_[l], kLayers[l + 1],
                          kLayers[l], wscale_[l], wq_[l].data());
    }
    // Each hidden layer's OUTPUT scale is constrained to a power-of-two
    // multiple of its accumulator scale s_in * s_w (see nn/quant.hpp), the
    // smallest such scale whose 255-step range still covers the measured
    // output amax — rounding the scale UP, so the u8 clamp never clips
    // tighter than the calibration sweep saw. That makes the requant
    // multiplier exactly 2^-rshift, and the bias plus the round-half-up
    // constant fold into the int32 accumulator init acc0.
    ascale_[0] = amax[0] > 0.0f ? amax[0] / 255.0f : 1.0f;
    for (std::size_t l = 0; l + 1 < layers; ++l) {
      const float sacc = ascale_[l] * wscale_[l];
      const double need =
          static_cast<double>(amax[l + 1]) / (255.0 * sacc);
      int rs = need > 1.0
                   ? static_cast<int>(std::ceil(std::log2(need)))
                   : 0;
      rs = std::min(std::max(rs, 0), 24);
      rshift_[l] = rs;
      ascale_[l + 1] = sacc * static_cast<float>(1 << rs);
      acc0_[l].resize(kLayers[l + 1]);
      const float* b = params_.data() + b_off_[l];
      for (std::size_t o = 0; o < kLayers[l + 1]; ++o) {
        // Clamp the requantized bias to +-2^30: |dot| < 2^21, so the
        // accumulator can never wrap even for degenerate scales.
        float t = b[o] / sacc;
        t = std::min(std::max(t, -1073741824.0f), 1073741824.0f);
        acc0_[l][o] =
            static_cast<std::int32_t>(std::nearbyintf(t)) +
            (rs > 0 ? std::int32_t{1} << (rs - 1) : 0);
      }
    }
    mfinal_ = ascale_[layers - 1] * wscale_[layers - 1];
    // Two ping-pong scratch slabs sized for the widest layer input
    // (32 channels -> 4 KB), 64-byte aligned: the hidden kernels stream
    // 64-byte rows, and cache-line-split loads cost ~20% end to end.
    const std::size_t slab =
        nn::quant_groups(kLayers[1]) * J * nn::kQuantGroup;
    aq_store_.resize(2 * slab + 63);
    const auto base = reinterpret_cast<std::uintptr_t>(aq_store_.data());
    std::uint8_t* p = aq_store_.data() + ((64 - base % 64) % 64);
    aq_ping_ = p;
    aq_pong_ = p + slab;
    quant_on_ = true;
    return true;
  }

  void disable_quant() override { quant_on_ = false; }
  bool quant_enabled() const override { return quant_on_; }

  Logits logits_quant(const Observation& obs) const override {
    if (!quant_on_) return logits(obs);
    Logits out;
    quant_window(obs.features.data(), out.data());
    return out;
  }

  void logits_quant_batch(const Observation* const* obs, std::size_t n,
                          float* out) const override {
    if (!quant_on_) {
      logits_batch(obs, n, out);
      return;
    }
    for (std::size_t k = 0; k < n; ++k) {
      quant_window(obs[k]->features.data(), out + k * kMaxObservable);
    }
  }

 private:
  void ensure_batch(std::size_t n) const {
    if (n <= batch_cap_) return;
    batch_cap_ = n;
    act_.resize(act_unit_ * n);
  }

  /// Live-prefix width of a window: its real slots plus at least one
  /// all-zero padded slot, rounded up to whole SIMD lanes.
  static std::size_t live_cols(const Observation& obs) {
    constexpr std::size_t V = nn::kSimdLanes;
    static_assert(kMaxObservable % V == 0, "window must be whole lanes");
    return std::min<std::size_t>((obs.count + V) / V * V, kMaxObservable);
  }

  /// Compact the live prefix of the 6 feature rows into x_ (row stride
  /// cols), the layer-0 input of both forward and backward.
  const float* pack_features(const Observation& obs, std::size_t cols) const {
    for (std::size_t f = 0; f < kLayers[0]; ++f) {
      std::memcpy(x_.data() + f * cols,
                  obs.features.data() + f * kMaxObservable,
                  cols * sizeof(float));
    }
    return x_.data();
  }

  /// Full layer stack over window k's live prefix; activations land in the
  /// window's slab block with row stride cols (retained for
  /// backward_window). Writes all 128 logits: slots past the prefix are
  /// padding, scored exactly like the padded slot at index count.
  void forward_window(const Observation& obs, std::size_t k,
                      float* logits) const {
    const std::size_t cols = live_cols(obs);
    float* base = act_.data() + k * act_unit_;
    const float* in = pack_features(obs, cols);
    for (std::size_t l = 0; l + 1 < kLayers.size(); ++l) {
      float* out = base + act_off_[l];
      nn::dense_batch_forward(params_.data() + w_off_[l],
                              params_.data() + b_off_[l], in, out,
                              kLayers[l + 1], kLayers[l], cols,
                              /*relu=*/l + 2 < kLayers.size());
      in = out;
    }
    std::memcpy(logits, in, cols * sizeof(float));
    if (cols < kMaxObservable) {
      std::fill(logits + cols, logits + kMaxObservable, in[obs.count]);
    }
  }

  /// Pairs with the latest forward_window(obs, k). Runs over the same live
  /// prefix, so dlogits of slots >= count must be +-0 (see the class
  /// comment). Gradient scratch is shared across windows (backwards run
  /// sequentially); gW/gb reductions use the order-stable lane order of
  /// nn::dense_batch_backward.
  void backward_window(const Observation& obs, std::size_t k,
                       const float* dlogits, float* gparams) const {
    const std::size_t cols = live_cols(obs);
    const std::size_t layers = kLayers.size() - 1;
    const float* base = act_.data() + k * act_unit_;
    const float* features = pack_features(obs, cols);
    std::memcpy(dact_.data() + act_off_[layers - 1], dlogits,
                cols * sizeof(float));
    for (std::size_t l = layers; l-- > 0;) {
      const float* a_in = l == 0 ? features : base + act_off_[l - 1];
      float* d_out = dact_.data() + act_off_[l];
      float* d_in = l == 0 ? nullptr : dact_.data() + act_off_[l - 1];
      nn::dense_batch_backward(params_.data() + w_off_[l], a_in,
                               base + act_off_[l], d_out, d_in,
                               gparams + w_off_[l], gparams + b_off_[l],
                               kLayers[l + 1], kLayers[l], cols,
                               /*relu=*/l + 1 < layers);
    }
  }

  /// One window through the quantized stack: quantize features, three
  /// fused int8 hidden layers, dequantizing head into `out` (128 floats).
  void quant_window(const float* features, float* out) const {
    constexpr std::size_t J = kMaxObservable;
    std::uint8_t* cur = aq_ping_;
    std::uint8_t* nxt = aq_pong_;
    nn::pack_acts_u8(features, kLayers[0], J, J, 1.0f / ascale_[0], cur);
    for (std::size_t l = 0; l + 2 < kLayers.size(); ++l) {
      nn::quant_dense_hidden(cur, wq_[l].data(), kLayers[l + 1],
                             nn::quant_groups(kLayers[l]), J, rshift_[l],
                             acc0_[l].data(), nxt);
      std::swap(cur, nxt);
    }
    const std::size_t last = kLayers.size() - 2;
    nn::quant_dense_f32(cur, wq_[last].data(), kLayers[last + 1],
                        nn::quant_groups(kLayers[last]), J, mfinal_,
                        params_.data() + b_off_[last], out);
  }

  static constexpr std::array<std::size_t, 5> kLayers = {kJobFeatures, 32,
                                                         16, 8, 1};
  std::array<std::size_t, 4> w_off_{}, b_off_{};
  std::array<std::size_t, 4> act_off_{};  ///< float offsets within a window
  std::size_t act_unit_ = 0;              ///< activation floats per window
  mutable std::size_t batch_cap_ = 1;
  mutable std::vector<float> act_;   ///< window-major activation slab
  mutable std::vector<float> dact_;  ///< one window of gradient scratch
  mutable std::vector<float> x_;     ///< compact live-prefix features

  // int8 snapshot (enable_quant) + per-window packed-activation scratch
  bool quant_on_ = false;
  std::array<std::vector<std::int8_t>, 4> wq_;
  std::array<float, 4> wscale_{}, ascale_{};
  std::array<int, 3> rshift_{};
  std::array<std::vector<std::int32_t>, 3> acc0_;
  float mfinal_ = 0.0f;
  mutable std::vector<std::uint8_t> aq_store_;  ///< backing, over-allocated
  mutable std::uint8_t* aq_ping_ = nullptr;     ///< 64B-aligned slabs
  mutable std::uint8_t* aq_pong_ = nullptr;
};

// ---------------------------------------------------------------------------
// Flat MLP baselines: the whole window (features flattened) through dense
// layers to 128 logits. Destroys permutation equivariance — the paper's
// point in Fig 8. Batched entry points stack observations along the SAMPLE
// axis of the FlatMlp (J = n columns), amortizing the big weight matrices
// across the batch; per-sample (window=1) gradient reductions keep the
// update bitwise identical to sequential per-sample backwards.
// ---------------------------------------------------------------------------
class MlpPolicy final : public Policy {
 public:
  MlpPolicy(PolicyKind kind, std::vector<std::size_t> hidden, util::Rng& rng)
      : kind_(kind), net_(make_sizes(std::move(hidden))) {
    params_.resize(net_.param_count());
    net_.init(params_.data(), rng, 0.01f);
  }

  Logits logits(const Observation& obs) const override {
    const float* out = net_.forward(params_.data(), obs.features.data());
    Logits l;
    std::memcpy(l.data(), out, sizeof(l));
    return l;
  }

  void backward(const Observation& obs, const Logits& dlogits,
                float* gparams) const override {
    net_.backward(params_.data(), obs.features.data(), dlogits.data(),
                  gparams, nullptr, /*recompute=*/false);
  }

  void logits_batch(const Observation* const* obs, std::size_t n,
                    float* out) const override {
    ensure_batch(n);
    constexpr std::size_t in = kJobFeatures * kMaxObservable;
    // Transpose-pack into the SoA sample axis: feature i of sample k at
    // x[i*n + k].
    for (std::size_t k = 0; k < n; ++k) {
      const float* f = obs[k]->features.data();
      for (std::size_t i = 0; i < in; ++i) x_[i * n + k] = f[i];
    }
    const float* soa = net_.forward_batch(params_.data(), x_.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      float* row = out + k * kMaxObservable;
      for (std::size_t o = 0; o < kMaxObservable; ++o) row[o] = soa[o * n + k];
    }
  }

  void reserve_batch(std::size_t n) const override {
    ensure_batch(n);
    net_.reserve_batch(n);
  }

  bool supports_batched_update() const override { return true; }

  void backward_batch(const Observation* const* obs, std::size_t n,
                      const float* dlogits, const std::uint8_t* win_active,
                      float* gparams) const override {
    (void)obs;  // x_ still holds the transposed pack from logits_batch
    for (std::size_t k = 0; k < n; ++k) {
      const float* row = dlogits + k * kMaxObservable;
      for (std::size_t o = 0; o < kMaxObservable; ++o) {
        dsoa_[o * n + k] = row[o];
      }
    }
    net_.backward_batch(params_.data(), x_.data(), dsoa_.data(), gparams, n,
                        /*window=*/1, win_active, nullptr);
  }

  PolicyKind kind() const override { return kind_; }

 private:
  void ensure_batch(std::size_t n) const {
    if (n <= batch_cap_ && !x_.empty()) return;
    batch_cap_ = n > batch_cap_ ? n : batch_cap_;
    x_.resize(kJobFeatures * kMaxObservable * batch_cap_);
    dsoa_.resize(kMaxObservable * batch_cap_);
  }

  static std::vector<std::size_t> make_sizes(std::vector<std::size_t> hidden) {
    std::vector<std::size_t> sizes;
    sizes.push_back(kJobFeatures * kMaxObservable);
    for (const std::size_t h : hidden) sizes.push_back(h);
    sizes.push_back(kMaxObservable);
    return sizes;
  }
  PolicyKind kind_;
  nn::FlatMlp net_;
  mutable std::size_t batch_cap_ = 0;
  mutable std::vector<float> x_, dsoa_;  ///< transposed pack + dOut scratch
};

// ---------------------------------------------------------------------------
// LeNet-style baseline: conv1d/pool stacks along the job axis, then a dense
// head. Pooling mixes neighbouring queue slots — the order sensitivity that
// degrades its training curves.
// ---------------------------------------------------------------------------
class LeNetPolicy final : public Policy {
 public:
  explicit LeNetPolicy(util::Rng& rng)
      : head_({kC2 * (kMaxObservable / 4), 64, kMaxObservable}) {
    conv1_w_ = 0;
    conv1_b_ = conv1_w_ + kC1 * kJobFeatures * kK;
    conv2_w_ = conv1_b_ + kC1;
    conv2_b_ = conv2_w_ + kC2 * kC1 * kK;
    head_off_ = conv2_b_ + kC2;
    params_.resize(head_off_ + head_.param_count());

    auto init_conv = [&rng, this](std::size_t w_off, std::size_t count,
                                  std::size_t fan_in) {
      const float scale = std::sqrt(2.0f / static_cast<float>(fan_in));
      for (std::size_t i = 0; i < count; ++i) {
        params_[w_off + i] = scale * static_cast<float>(rng.normal());
      }
    };
    init_conv(conv1_w_, kC1 * kJobFeatures * kK, kJobFeatures * kK);
    init_conv(conv2_w_, kC2 * kC1 * kK, kC1 * kK);
    head_.init(params_.data() + head_off_, rng, 0.01f);

    c1_.resize(kC1 * kMaxObservable);
    p1_.resize(kC1 * (kMaxObservable / 2));
    c2_.resize(kC2 * (kMaxObservable / 2));
    p2_.resize(kC2 * (kMaxObservable / 4));
    dc1_.resize(c1_.size());
    dp1_.resize(p1_.size());
    dc2_.resize(c2_.size());
    dp2_.resize(p2_.size());
  }

  Logits logits(const Observation& obs) const override {
    forward(obs);
    const float* out = head_.forward(params_.data() + head_off_, p2_.data());
    Logits l;
    std::memcpy(l.data(), out, sizeof(l));
    return l;
  }

  void backward(const Observation& obs, const Logits& dlogits,
                float* gparams) const override {
    head_.backward(params_.data() + head_off_, p2_.data(), dlogits.data(),
                   gparams + head_off_, dp2_.data(), /*recompute=*/false);
    constexpr std::size_t L = kMaxObservable;
    nn::avgpool2_backward(dp2_.data(), dc2_.data(), kC2, L / 2);
    nn::conv1d_backward(params_.data() + conv2_w_, p1_.data(), c2_.data(),
                        dc2_.data(), dp1_.data(), gparams + conv2_w_,
                        gparams + conv2_b_, kC2, kC1, L / 2, kK, true);
    nn::avgpool2_backward(dp1_.data(), dc1_.data(), kC1, L);
    nn::conv1d_backward(params_.data() + conv1_w_, obs.features.data(),
                        c1_.data(), dc1_.data(), nullptr, gparams + conv1_w_,
                        gparams + conv1_b_, kC1, kJobFeatures, L, kK, true);
  }

  PolicyKind kind() const override { return PolicyKind::LeNet; }

 private:
  void forward(const Observation& obs) const {
    constexpr std::size_t L = kMaxObservable;
    nn::conv1d_forward(params_.data() + conv1_w_, params_.data() + conv1_b_,
                       obs.features.data(), c1_.data(), kC1, kJobFeatures, L,
                       kK, true);
    nn::avgpool2_forward(c1_.data(), p1_.data(), kC1, L);
    nn::conv1d_forward(params_.data() + conv2_w_, params_.data() + conv2_b_,
                       p1_.data(), c2_.data(), kC2, kC1, L / 2, kK, true);
    nn::avgpool2_forward(c2_.data(), p2_.data(), kC2, L / 2);
  }

  static constexpr std::size_t kC1 = 8, kC2 = 8, kK = 5;
  std::size_t conv1_w_, conv1_b_, conv2_w_, conv2_b_, head_off_;
  nn::FlatMlp head_;
  mutable std::vector<float> c1_, p1_, c2_, p2_, dc1_, dp1_, dc2_, dp2_;
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    std::size_t max_observable,
                                    util::Rng& rng) {
  if (max_observable > kMaxObservable) {
    throw std::invalid_argument(
        "max_observable exceeds compiled kMaxObservable");
  }
  switch (kind) {
    case PolicyKind::Kernel:
      return std::make_unique<KernelPolicy>(rng);
    case PolicyKind::MlpV1:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{128, 128},
                                         rng);
    case PolicyKind::MlpV2:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{256, 256},
                                         rng);
    case PolicyKind::MlpV3:
      return std::make_unique<MlpPolicy>(kind,
                                         std::vector<std::size_t>{512, 512},
                                         rng);
    case PolicyKind::LeNet:
      return std::make_unique<LeNetPolicy>(rng);
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace rlsched::rl
