/**
 * @file
 * The workloads of the CAMS benchmark (see README.md):
 *
 *  - compile-2c: the paper's 1327-loop suite compiled in a closed
 *    loop on one thread, 2c-gp-2b-1p, heuristic backend, cache off;
 *  - race-4c: the same suite on 4c-gp-4b-2p with the race backend;
 *  - rebuild-2c: the same suite and machine compiled through an
 *    on-disk compile cache that set-up filled, as when a build system
 *    rebuilds an unchanged program; its traced run also samples the
 *    serve layer through an in-process CamsServer.
 *
 * An untraced run reports the end-to-end metrics; a traced run
 * replays the layers through their public entry points and reports
 * the per-layer metrics. Every output the benchmark receives is
 * checked by independent oracles outside the timed region.
 */

#ifndef CAMSBENCH_WORKLOADS_HH
#define CAMSBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hh"

namespace camsbench
{

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;

    /** Directory for sockets, caches and span files (must exist). */
    std::string workDir;
};

/** What one run measured and checked. */
struct RunReport
{
    Outcomes outcomes;
    std::vector<Metric> metrics;

    /** Human-readable lines printed before the result line. */
    std::vector<std::string> log;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Runs one workload; the caller checks the name first. */
RunReport runWorkload(const RunConfig &config);

} // namespace camsbench

#endif // CAMSBENCH_WORKLOADS_HH
