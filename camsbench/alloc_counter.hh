/**
 * @file
 * Heap-allocation counter of the benchmark binary. alloc_counter.cc
 * replaces the global operator new and delete with versions that
 * count every allocation made by the calling thread, so the
 * difference of two readings around a call is the number of
 * allocations that call made. The cams library itself is unchanged.
 */

#ifndef CAMSBENCH_ALLOC_COUNTER_HH
#define CAMSBENCH_ALLOC_COUNTER_HH

namespace camsbench
{

/** Allocations made so far by the calling thread. */
long threadAllocations();

} // namespace camsbench

#endif // CAMSBENCH_ALLOC_COUNTER_HH
