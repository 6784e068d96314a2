#include "common/decay.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace dynamo {
namespace {

static_assert(std::has_single_bit(kDecaySlots));

struct Slot
{
    SimTime dt;
    double tau_s;
    DecayTerms terms;
};

using Table = std::array<Slot, kDecaySlots>;

/**
 * Every slot starts as the true entry for a 0 ms step under a 1 s time
 * constant (exp(-0) is exactly 1), so an unfilled slot needs no flag:
 * it can only answer the one key it is correct for.
 */
constexpr Table
EmptyTable()
{
    Table table{};
    for (Slot& slot : table) slot = Slot{0, 1.0, DecayTerms{1.0, 0.0}};
    return table;
}

constinit thread_local Table t_table = EmptyTable();

}  // namespace

std::size_t
DecaySlot(SimTime dt, double tau_s)
{
    constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
    const std::uint64_t key = (static_cast<std::uint64_t>(dt) * kGolden) ^
                              std::bit_cast<std::uint64_t>(tau_s);
    return static_cast<std::size_t>(
        (key * kGolden) >> (64 - std::countr_zero(kDecaySlots)));
}

DecayTerms
DecayOver(SimTime dt, double tau_s)
{
    Slot& slot = t_table[DecaySlot(dt, tau_s)];
    if (slot.dt == dt && std::bit_cast<std::uint64_t>(slot.tau_s) ==
                             std::bit_cast<std::uint64_t>(tau_s)) {
        return slot.terms;
    }
    const double decay = std::exp(-ToSeconds(dt) / tau_s);
    const double root = std::sqrt(std::max(0.0, 1.0 - decay * decay));
    slot = Slot{dt, tau_s, DecayTerms{decay, root}};
    return slot.terms;
}

}  // namespace dynamo
