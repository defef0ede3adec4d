/**
 * @file
 * Thread count of the fast simulator. Every backend, compiled-parallel
 * included, evaluates on the simulating thread, so the count is always
 * one; it is still reported by the benches as a provenance field.
 */

#ifndef STROBER_SIM_WORKER_POOL_H
#define STROBER_SIM_WORKER_POOL_H

namespace strober {
namespace sim {

/** Threads one Simulator evaluates on: always 1. */
inline unsigned
simThreads()
{
    return 1;
}

} // namespace sim
} // namespace strober

#endif // STROBER_SIM_WORKER_POOL_H
