// Masked argmax/softmax determinism: ties break to the lowest index,
// masked-out slots are never chosen and carry zero probability. The
// lane-parallel argmax is fuzzed against a plain scalar reference (max,
// then first index equal to it) at every length across the lane blocks.
#include <array>
#include <cstdint>
#include <limits>

#include "nn/ops.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace {

std::size_t reference_argmax(const float* v, const std::uint8_t* mask,
                             std::size_t n) {
  float best = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0 && v[i] > best) best = v[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0 && v[i] == best) return i;
  }
  return 0;
}

// Few distinct values (both zero signs, both infinities) so ties, -inf-only
// windows and all-masked windows all occur often; plus NaN entries, which
// the reference (and argmax_masked) never choose.
void fuzz_argmax_against_reference() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float pool[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.5f, kInf, -kInf,
                        std::numeric_limits<float>::quiet_NaN()};
  rlsched::util::Rng rng(11);
  std::array<float, 140> v{};
  std::array<std::uint8_t, 140> mask{};
  for (int trial = 0; trial < 200000; ++trial) {
    const std::size_t n = rng.below(v.size() + 1);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = trial % 2 == 0 ? pool[rng.below(8)]
                            : static_cast<float>(rng.normal());
      mask[i] = rng.below(4) != 0 ? 1 : 0;
    }
    CHECK(rlsched::nn::argmax_masked(v.data(), mask.data(), n) ==
          reference_argmax(v.data(), mask.data(), n));
  }
}

}  // namespace

int main() {
  constexpr std::size_t N = 8;
  std::array<float, N> v = {1.0f, 5.0f, 5.0f, -2.0f, 9.0f, 5.0f, 0.0f, 9.0f};
  std::array<std::uint8_t, N> mask = {1, 1, 1, 1, 0, 1, 1, 0};

  // 9.0 at indices 4 and 7 is masked out; the max among valid is 5.0,
  // tied at 1, 2, 5 -> deterministic winner is index 1.
  CHECK(rlsched::nn::argmax_masked(v, mask) == 1);

  // Identical logits everywhere: always the first valid slot.
  v.fill(3.25f);
  CHECK(rlsched::nn::argmax_masked(v, mask) == 0);
  std::array<std::uint8_t, N> tail_only = {0, 0, 0, 0, 0, 0, 1, 1};
  CHECK(rlsched::nn::argmax_masked(v, tail_only) == 6);

  // Repeated evaluation is bit-stable.
  for (int rep = 0; rep < 100; ++rep) {
    CHECK(rlsched::nn::argmax_masked(v, tail_only) == 6);
  }

  // Softmax: masked entries are exactly zero, valid ones sum to 1.
  std::array<float, N> logits = {0.5f, -1.0f, 2.0f, 0.0f,
                                 100.0f, 1.0f, -3.0f, 50.0f};
  std::array<float, N> probs{};
  rlsched::nn::softmax_masked(logits.data(), mask.data(), probs.data(), N);
  float sum = 0.0f;
  for (std::size_t i = 0; i < N; ++i) {
    if (mask[i] == 0) CHECK(probs[i] == 0.0f);
    CHECK(probs[i] >= 0.0f);
    sum += probs[i];
  }
  CHECK_NEAR(sum, 1.0, 1e-5);

  // All-masked input: no crash, all-zero probabilities, argmax returns 0.
  std::array<std::uint8_t, N> none{};
  rlsched::nn::softmax_masked(logits.data(), none.data(), probs.data(), N);
  for (const float p : probs) CHECK(p == 0.0f);
  CHECK(rlsched::nn::argmax_masked(logits.data(), none.data(), N) == 0);

  fuzz_argmax_against_reference();
  std::puts("masked argmax/softmax: OK");
  return 0;
}
