/**
 * @file
 * Shared plumbing for the experiment binaries: the cached loop suite,
 * per-unified-machine baseline caching, figure printing, and the
 * common command-line surface.
 *
 * Every figure/table binary runs the full 1327-loop suite by default
 * and submits its compiles through the parallel batch engine. Knobs:
 *
 *   --jobs N          worker threads (default: CAMS_JOBS env or the
 *                     hardware concurrency); results are identical
 *                     for every value
 *   --seed S          master seed of the synthetic suite (default:
 *                     the published experiments' seed)
 *   CAMS_SUITE_SIZE   subsample to the first n loops for a quick look
 */

#ifndef CAMS_BENCH_COMMON_HH
#define CAMS_BENCH_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/driver.hh"
#include "report/deviation.hh"
#include "report/table.hh"
#include "support/metrics.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"
#include "workload/suite.hh"

namespace cams
{
namespace benchutil
{

inline int
suiteSize()
{
    if (const char *env = std::getenv("CAMS_SUITE_SIZE")) {
        const int size = std::atoi(env);
        if (size > 0)
            return size;
    }
    return 1327;
}

/** Worker-thread count used by every batch submission. */
inline int &
jobCount()
{
    static int jobs = ThreadPool::defaultThreads();
    return jobs;
}

/** Master seed of the shared suite (settable before first use). */
inline uint64_t &
suiteSeed()
{
    static uint64_t seed = defaultSuiteSeed;
    return seed;
}

/** Trace output path; empty = tracing off. */
inline std::string &
tracePath()
{
    static std::string path;
    return path;
}

/** Metrics output path; empty = no metrics file. */
inline std::string &
metricsPath()
{
    static std::string path;
    return path;
}

/** Level of the shared sink (set before the first batch). */
inline TraceLevel &
traceLevel()
{
    static TraceLevel level = TraceLevel::Phase;
    return level;
}

/** The binary-wide sink; null until --trace asked for one. */
inline TraceSink *
traceSink()
{
    static std::unique_ptr<TraceSink> sink;
    if (!sink && !tracePath().empty())
        sink = std::make_unique<TraceSink>(traceLevel());
    return sink.get();
}

/** Registry aggregating every batch this binary runs. */
inline MetricsRegistry &
sharedRegistry()
{
    static MetricsRegistry registry;
    return registry;
}

/** Backend every batch compiles with (--backend). */
inline CompileBackend &
backendChoice()
{
    static CompileBackend backend = CompileBackend::Heuristic;
    return backend;
}

/** Compile cache directory; empty = caching off. */
inline std::string &
cacheDir()
{
    static std::string dir;
    return dir;
}

/** Cache mode applied when cacheDir() is set. */
inline CacheMode &
cacheMode()
{
    static CacheMode mode = CacheMode::ReadWrite;
    return mode;
}

/** The binary-wide compile cache; null until --cache-dir asked. */
inline CompileCache *
compileCache()
{
    static std::unique_ptr<CompileCache> cache;
    static bool tried = false;
    if (!tried && !cacheDir().empty() &&
        cacheMode() != CacheMode::Off) {
        tried = true;
        cache = std::make_unique<CompileCache>(cacheDir(), cacheMode());
        if (!cache->enabled()) {
            std::cerr << "warning: " << cache->openError()
                      << "; continuing uncached\n";
            cache.reset();
        }
    }
    return cache.get();
}

/**
 * Parses the common experiment flags (--jobs N, --seed S, --trace
 * FILE, --trace-level L, --metrics FILE). Exits with a usage message
 * on anything unrecognized, so every driver shares one flag surface.
 * Call before the first sharedSuite() use.
 */
inline void
parseBatchArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--jobs" && value) {
            const int jobs = std::atoi(value);
            if (jobs > 0)
                jobCount() = jobs;
            ++i;
        } else if (arg == "--seed" && value) {
            suiteSeed() = std::strtoull(value, nullptr, 0);
            ++i;
        } else if (arg == "--trace" && value) {
            tracePath() = value;
            ++i;
        } else if (arg == "--trace-level" && value) {
            if (!parseTraceLevel(value, traceLevel())) {
                std::cerr << "unknown trace level: " << value << "\n";
                std::exit(2);
            }
            ++i;
        } else if (arg == "--metrics" && value) {
            metricsPath() = value;
            ++i;
        } else if (arg == "--backend" && value) {
            if (!parseCompileBackend(value, backendChoice())) {
                std::cerr << "unknown backend: " << value << "\n";
                std::exit(2);
            }
            ++i;
        } else if (arg == "--cache-dir" && value) {
            cacheDir() = value;
            ++i;
        } else if (arg == "--cache" && value) {
            if (!parseCacheMode(value, cacheMode())) {
                std::cerr << "unknown cache mode: " << value << "\n";
                std::exit(2);
            }
            ++i;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs N] [--seed S] [--trace FILE]"
                         " [--trace-level L] [--metrics FILE]"
                         " [--backend heuristic|race]"
                         " [--cache-dir DIR] [--cache off|ro|rw]\n";
            std::exit(2);
        }
    }
}

/** Attaches the shared sink and compile cache to a batch's options. */
inline CompileOptions
withTrace(CompileOptions options)
{
    options.trace.sink = traceSink();
    options.cache = compileCache();
    options.backend = backendChoice();
    return options;
}

inline const std::vector<Dfg> &
sharedSuite()
{
    static const std::vector<Dfg> suite =
        buildSuite(suiteSize(), suiteSeed());
    return suite;
}

/** Baseline IIs, cached per unified machine identity. */
inline const std::vector<int> &
baselineFor(const MachineDesc &clustered, const CompileOptions &options)
{
    static std::map<std::string, std::vector<int>> cache;
    const MachineDesc unified = clustered.unifiedEquivalent();
    const std::string key =
        unified.name + "/" +
        (options.scheduler == SchedulerKind::Swing ? "sms" : "ims");
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, unifiedBaseline(
                                   sharedSuite(), unified,
                                   withTrace(options), jobCount(),
                                   &sharedRegistry()))
                 .first;
    }
    return it->second;
}

/** Runs one series of a figure over the shared suite. */
inline DeviationSeries
runSeries(const std::string &label, const MachineDesc &machine,
          const CompileOptions &options = {})
{
    std::cerr << "running " << label << " (" << sharedSuite().size()
              << " loops on " << machine.name << ", " << jobCount()
              << " jobs)..." << std::endl;
    return runClusteredSeries(sharedSuite(), machine,
                              baselineFor(machine, options),
                              withTrace(options), label, jobCount(),
                              &sharedRegistry());
}

/**
 * Writes the trace and metrics files when asked for. Called after
 * every figure; the sink and registry are cumulative, so the last
 * write of a multi-figure binary carries everything.
 */
inline void
writeObservability()
{
    if (TraceSink *sink = traceSink()) {
        if (!sink->writeFile(tracePath()))
            std::cerr << "cannot write " << tracePath() << "\n";
        else
            std::cerr << tracePath() << " written\n";
    }
    if (!metricsPath().empty()) {
        if (CompileCache *cache = compileCache())
            cache->publish(sharedRegistry());
        std::ofstream out(metricsPath());
        if (!out)
            std::cerr << "cannot write " << metricsPath() << "\n";
        else
            out << sharedRegistry().toJson() << "\n";
    }
}

inline void
printFigure(const std::string &title,
            const std::vector<DeviationSeries> &series)
{
    std::cout << renderDeviationFigure(title, series) << std::endl;
    // Set CAMS_CSV=1 to additionally dump machine-readable data for
    // external plotting.
    if (std::getenv("CAMS_CSV"))
        std::cout << renderDeviationCsv(series) << std::endl;
    writeObservability();
}

} // namespace benchutil
} // namespace cams

#endif // CAMS_BENCH_COMMON_HH
