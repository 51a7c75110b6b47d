/**
 * @file
 * Compile-time benchmark of the clustered driver: compiles the shared
 * suite (all 1327 loops unless CAMS_SUITE_SIZE subsamples it) on
 * 2c-gp-2b-1p on one worker thread, CAMS_PERF_REPS times (default
 * 3), and writes BENCH_compile_perf.json with
 *
 *  - suite totals of the deterministic work counters: II attempts,
 *    assignment retries, evictions, copies, MRT word scans and
 *    LoopContext hits/misses. They are a function of the code alone,
 *    so every repetition must report the same totals (the binary
 *    aborts otherwise), and tools/check_compile_perf.py demands they
 *    equal the checked-in bench/baselines/compile_perf_baseline.json;
 *  - wall time per loop (mean, p50 and p90 of the fastest repetition)
 *    and its per-phase split, which the gate treats as a trend.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "machine/configs.hh"
#include "support/str.hh"

namespace
{

using namespace cams;

/** Suite totals of the deterministic work counters. */
struct WorkCounters
{
    long attempts = 0;
    long assignRetries = 0;
    long evictions = 0;
    long copies = 0;
    long mrtWordScans = 0;
    long ctxHits = 0;
    long ctxMisses = 0;

    bool operator==(const WorkCounters &) const = default;
};

WorkCounters
countersOf(const BatchStats &stats)
{
    WorkCounters c;
    c.attempts = stats.iiAttempts;
    c.assignRetries = stats.assignRetries;
    c.evictions = stats.evictions;
    c.copies = stats.copies;
    c.mrtWordScans = stats.mrtWordScans;
    c.ctxHits = stats.ctxHits;
    c.ctxMisses = stats.ctxMisses;
    return c;
}

double
percentileNs(const std::vector<double> &sortedMs, double fraction)
{
    if (sortedMs.empty())
        return 0.0;
    const size_t index = std::min(
        sortedMs.size() - 1,
        static_cast<size_t>(fraction * (sortedMs.size() - 1) + 0.5));
    return sortedMs[index] * 1e6;
}

std::string
countersJson(const WorkCounters &c)
{
    std::ostringstream os;
    os << "{\"attempts\":" << c.attempts << ","
       << "\"assign_retries\":" << c.assignRetries << ","
       << "\"evictions\":" << c.evictions << ","
       << "\"copies\":" << c.copies << ","
       << "\"mrt_word_scans\":" << c.mrtWordScans << ","
       << "\"ctx_hits\":" << c.ctxHits << ","
       << "\"ctx_misses\":" << c.ctxMisses << "}";
    return os.str();
}

std::string
phasesJson(const BatchOutcome &outcome, size_t loops)
{
    PhaseTimes sum;
    for (const CompileResult &result : outcome.results) {
        sum.orderMs += result.phaseMs.orderMs;
        sum.assignMs += result.phaseMs.assignMs;
        sum.routeMs += result.phaseMs.routeMs;
        sum.scheduleMs += result.phaseMs.scheduleMs;
        sum.verifyMs += result.phaseMs.verifyMs;
        sum.totalMs += result.phaseMs.totalMs;
    }
    const double scale = loops == 0 ? 0.0 : 1e6 / static_cast<double>(loops);
    auto ns = [&](double ms) { return formatFixed(ms * scale, 0); };
    std::ostringstream os;
    os << "{\"assign\":" << ns(sum.assignMs) << ","
       << "\"order\":" << ns(sum.orderMs) << ","
       << "\"route\":" << ns(sum.routeMs) << ","
       << "\"schedule\":" << ns(sum.scheduleMs) << ","
       << "\"verify\":" << ns(sum.verifyMs) << ","
       << "\"total\":" << ns(sum.totalMs) << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cams;
    benchutil::parseBatchArgs(argc, argv);
    int reps = 3;
    if (const char *env = std::getenv("CAMS_PERF_REPS")) {
        const int value = std::atoi(env);
        if (value > 0)
            reps = value;
    }

    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::vector<Dfg> &suite = benchutil::sharedSuite();
    const std::vector<CompileJob> jobs =
        clusteredJobs(suite, machine, CompileOptions{});

    std::cerr << "timing " << suite.size() << " loops on "
              << machine.name << ", " << reps << " reps..." << std::endl;
    BatchOutcome fastest;
    WorkCounters counters;
    for (int rep = 0; rep < reps; ++rep) {
        BatchOutcome outcome = BatchRunner::run(jobs, 1);
        const WorkCounters seen = countersOf(outcome.stats);
        if (rep == 0) {
            counters = seen;
        } else if (!(seen == counters)) {
            std::cerr << "work counters of repetition " << rep
                      << " differ from the first:\n  "
                      << countersJson(counters) << "\n  "
                      << countersJson(seen) << "\n";
            std::abort();
        }
        const double cpuMs = outcome.stats.cpuMillis;
        if (rep == 0 || cpuMs < fastest.stats.cpuMillis)
            fastest = std::move(outcome);
    }

    const double cpuMs = fastest.stats.cpuMillis;
    const double meanNs =
        suite.empty() ? 0.0 : cpuMs * 1e6 / static_cast<double>(suite.size());
    std::vector<double> sorted = fastest.jobMillis;
    std::sort(sorted.begin(), sorted.end());
    const double p50Ns = percentileNs(sorted, 0.50);
    const double p90Ns = percentileNs(sorted, 0.90);
    const std::string phases = phasesJson(fastest, suite.size());

    std::ofstream json("BENCH_compile_perf.json");
    json << "{\"bench\":\"compile_perf\","
         << "\"loops\":" << suite.size() << ","
         << "\"machine\":\"" << machine.name << "\","
         << "\"reps\":" << reps << ","
         << "\"counters\":" << countersJson(counters) << ","
         << "\"cpu_ms\":" << formatFixed(cpuMs, 3) << ","
         << "\"mean_ns_per_loop\":" << formatFixed(meanNs, 0) << ","
         << "\"p50_ns\":" << formatFixed(p50Ns, 0) << ","
         << "\"p90_ns\":" << formatFixed(p90Ns, 0) << ","
         << "\"phase_ns_per_loop\":" << phases << "}\n";

    std::cout << "compile perf over " << suite.size()
              << " loops (best of " << reps << " reps): "
              << formatFixed(meanNs / 1000.0, 1) << " us/loop mean, p50 "
              << formatFixed(p50Ns / 1000.0, 1) << " p90 "
              << formatFixed(p90Ns / 1000.0, 1) << "\n"
              << "counters: " << countersJson(counters) << "\n"
              << "BENCH_compile_perf.json written\n";
    benchutil::writeObservability();
    return 0;
}
