#ifndef FLAY_SUPPORT_BACKOFF_H
#define FLAY_SUPPORT_BACKOFF_H

#include <cstdint>
#include <random>

namespace flay::support {

/// Capped exponential part of the backoff after the n-th consecutive failure
/// (n >= 1; 0 counts as 1): min(base << (n-1), max). Saturates at max once
/// the shift would overflow, so the schedule never decreases however many
/// attempts fail (a wrapping shift would collapse to 0 once base's trailing
/// zeros shift out, e.g. 200 << 61). A base of 0 counts as 1.
inline uint64_t cappedBackoffMicros(uint64_t base, uint64_t max,
                                    uint32_t attempt) {
  if (base == 0) base = 1;
  uint32_t shift = attempt == 0 ? 0 : attempt - 1;
  // base << shift <= max exactly when base <= max >> shift.
  if (shift >= 64 || base > (max >> shift)) return max;
  return base << shift;
}

/// The one backoff schedule: cappedBackoffMicros plus jitter drawn from
/// [0, base) with one draw from `rng`.
inline uint64_t backoffMicros(uint64_t base, uint64_t max, uint32_t attempt,
                              std::mt19937_64& rng) {
  if (base == 0) base = 1;
  std::uniform_int_distribution<uint64_t> jitter(0, base - 1);
  uint64_t capped = cappedBackoffMicros(base, max, attempt);
  return capped + jitter(rng);
}

}  // namespace flay::support

#endif  // FLAY_SUPPORT_BACKOFF_H
