#include "common/rng.hpp"

namespace tscclock {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ull;
  // The twist of one word: the matrix term is masked in, not selected by a
  // branch on the low bit (which mispredicts half the time).
  const auto twist = [](result_type word, result_type next, result_type far) {
    const result_type y = (word & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateSize - 1; ++k)
    state_[k] =
        twist(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  state_[k] = twist(state_[k], state_[0], state_[kShift - 1]);
  index_ = 0;
}

Rng Rng::fork(std::uint64_t label) {
  // splitmix-style decorrelation of the child seed from the parent stream.
  std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL * (label + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

}  // namespace tscclock
