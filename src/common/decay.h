/**
 * @file
 * The exponential decay terms of one step, memoized per step length.
 *
 * Every lazily advanced first-order process in the simulator — the
 * per-server OU fluctuation, a group's OU traffic factor, RAPL
 * settling — steps by exp(-dt / tau). Servers are read on shared
 * clocks (the breaker monitor every 1 s, leaf pulls every 3 s), so the
 * same (dt, tau) pairs recur millions of times per run. DecayOver keeps
 * each thread's recent pairs in a small direct-mapped table and
 * answers repeats from it.
 */
#ifndef DYNAMO_COMMON_DECAY_H_
#define DYNAMO_COMMON_DECAY_H_

#include <cstddef>

#include "common/units.h"

namespace dynamo {

/** The terms of one exact first-order (OU) step. */
struct DecayTerms
{
    /** exp(-ToSeconds(dt) / tau_s). */
    double decay;

    /** sqrt(max(0, 1 - decay^2)): the OU noise scale per unit sigma. */
    double root;
};

/**
 * Slots in each thread's memo table (a power of two; 8 KB at 256). The
 * sharded engine's pulls land a few milliseconds apart, so its steps
 * spread over thousands of keys: 256 slots answer about 93 % of its
 * steps where 64 answer about 68 %.
 */
inline constexpr std::size_t kDecaySlots = 256;

/**
 * The decay terms of a step of `dt` milliseconds under time constant
 * `tau_s` seconds, bit-for-bit equal to evaluating the two expressions
 * directly.
 *
 * The memo is keyed by `dt` and by the bits of `tau_s`, and a hit is
 * checked against both, so two keys sharing a slot only cost a
 * recomputation. Each thread has its own table: the sharded engine's
 * workers never share one, and since the table caches a pure
 * function, no result depends on which thread filled a slot.
 */
DecayTerms DecayOver(SimTime dt, double tau_s);

/** The memo slot that (dt, tau_s) maps to, in [0, kDecaySlots). */
std::size_t DecaySlot(SimTime dt, double tau_s);

}  // namespace dynamo

#endif  // DYNAMO_COMMON_DECAY_H_
