/**
 * @file
 * Counting global allocator for the benchmark binary.
 *
 * The binary replaces the global operator new/delete family with thin
 * malloc wrappers that count calls and requested bytes while counting
 * is switched on. Only the traced run switches it on; untimed and
 * timed runs pay one predictable branch per allocation. The benchmark
 * is single-threaded, so the counters are plain relaxed atomics.
 */
#ifndef DYNAMO_PERFBENCH_ALLOC_COUNTER_H_
#define DYNAMO_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/** Start or stop counting (counts persist across stops). */
void SetAllocCounting(bool on);

/** True while counting. */
bool AllocCounting();

/** Allocations and requested bytes counted so far. */
AllocCounts AllocCountsNow();

}  // namespace perfbench

#endif  // DYNAMO_PERFBENCH_ALLOC_COUNTER_H_
