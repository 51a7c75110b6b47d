#include "pipeline/batch.hh"

#include <sstream>
#include <stdexcept>

#include "support/threadpool.hh"
#include "support/time.hh"

namespace cams
{

std::string
BatchStats::toJson() const
{
    std::ostringstream os;
    os << "{"
       << "\"jobs\":" << jobs << ","
       << "\"succeeded\":" << succeeded << ","
       << "\"failed\":" << failed << ","
       << "\"degraded\":" << degraded << ","
       << "\"captured_exceptions\":" << capturedExceptions << ","
       << "\"threads\":" << threads << ","
       << "\"wall_ms\":" << wallMillis << ","
       << "\"cpu_ms\":" << cpuMillis << ","
       << "\"ii_attempts\":" << iiAttempts << ","
       << "\"assign_retries\":" << assignRetries << ","
       << "\"evictions\":" << evictions << ","
       << "\"copies\":" << copies << ","
       << "\"invariant_recoveries\":" << invariantRecoveries << ","
       << "\"verifier_rejects\":" << verifierRejects << ","
       << "\"fault_trips\":" << faultTrips << ","
       << "\"ctx_hits\":" << ctxHits << ","
       << "\"ctx_misses\":" << ctxMisses << ","
       << "\"mrt_word_scans\":" << mrtWordScans << ","
       << "\"cache_hits\":" << cacheHits << ","
       << "\"cache_misses\":" << cacheMisses << ","
       << "\"exact_sat\":" << exactSat << ","
       << "\"exact_unsat\":" << exactUnsat << ","
       << "\"exact_timeout\":" << exactTimeout << ","
       << "\"exact_unsupported\":" << exactUnsupported << ","
       << "\"exact_tightened\":" << exactTightened << ","
       << "\"exact_certified\":" << exactCertified << ","
       << "\"failure_kinds\":{";
    bool first = true;
    for (int kind = 1; kind < numFailureKinds; ++kind) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << failureKindName(FailureKind(kind))
           << "\":" << failuresByKind[kind];
    }
    os << "}";
    if (!metricsJson.empty())
        os << ",\"metrics\":" << metricsJson;
    os << "}";
    return os.str();
}

BatchOutcome
BatchRunner::run(const std::vector<CompileJob> &jobs, int threads,
                 double jobDeadlineMs, MetricsRegistry *metrics)
{
    BatchOutcome outcome;
    outcome.results.resize(jobs.size());
    outcome.jobMillis.resize(jobs.size(), 0.0);
    std::vector<char> captured(jobs.size(), 0);

    const Stopwatch batch_watch;
    {
        ThreadPool pool(threads);
        for (size_t i = 0; i < jobs.size(); ++i) {
            pool.post([&jobs, &outcome, &captured, jobDeadlineMs, i] {
                const CompileJob &job = jobs[i];
                if (!job.loop || !job.machine) {
                    throw std::invalid_argument(
                        "CompileJob with null loop or machine");
                }
                CompileOptions options = job.options;
                if (options.timeBudgetMs <= 0.0)
                    options.timeBudgetMs = jobDeadlineMs;
                if (options.trace.sink && options.trace.tag.empty())
                    options.trace.tag = "job" + std::to_string(i);
                // One scope per job in the worker's lane, so a trace
                // shows the batch fan-out at a glance.
                TraceScope job_scope(options.trace, TraceLevel::Phase,
                                     "batch_job", "batch");
                const Stopwatch job_watch;
                try {
                    outcome.results[i] =
                        job.clustered
                            ? compileClustered(*job.loop, *job.machine,
                                               options)
                            : compileUnified(*job.loop, *job.machine,
                                             options);
                } catch (const std::exception &err) {
                    // One pathological job must not kill the suite:
                    // capture the escape as that job's classified
                    // failure and keep going.
                    CompileResult crashed;
                    crashed.failure = FailureKind::InternalInvariant;
                    crashed.failureDetail =
                        std::string("uncaught exception: ") +
                        err.what();
                    outcome.results[i] = std::move(crashed);
                    captured[i] = 1;
                } catch (...) {
                    CompileResult crashed;
                    crashed.failure = FailureKind::InternalInvariant;
                    crashed.failureDetail =
                        "uncaught non-standard exception";
                    outcome.results[i] = std::move(crashed);
                    captured[i] = 1;
                }
                outcome.jobMillis[i] = job_watch.elapsedMs();
            });
        }
        pool.wait(); // rethrows a harness bug (null job), if any
        outcome.stats.threads = pool.threadCount();
    }
    outcome.stats.wallMillis = batch_watch.elapsedMs();

    // The snapshot registry is fresh per run; the caller's registry
    // (if any) receives the same records on top, so suite-wide
    // aggregation never contaminates per-run numbers.
    MetricsRegistry internal;
    auto record = [&](const char *name, double value) {
        internal.record(name, value);
        if (metrics)
            metrics->record(name, value);
    };
    auto count = [&](const char *name, int64_t delta) {
        internal.add(name, delta);
        if (metrics)
            metrics->add(name, delta);
    };

    outcome.stats.jobs = static_cast<int>(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CompileResult &result = outcome.results[i];
        if (result.success) {
            ++outcome.stats.succeeded;
            if (result.degraded != DegradeLevel::None)
                ++outcome.stats.degraded;
            else
                record("ii_slack", result.ii - result.mii.mii);
        } else {
            ++outcome.stats.failed;
            ++outcome.stats.failuresByKind[int(result.failure)];
            record("final_ii_tried", result.finalIiTried);
        }
        if (captured[i])
            ++outcome.stats.capturedExceptions;
        record("job_ms", outcome.jobMillis[i]);
        record("assign_ms", result.phaseMs.assignMs);
        outcome.stats.cpuMillis += outcome.jobMillis[i];
        outcome.stats.iiAttempts += result.attempts;
        outcome.stats.assignRetries += result.assignRetries;
        outcome.stats.evictions += result.evictions;
        outcome.stats.copies += result.copies;
        outcome.stats.invariantRecoveries += result.invariantRecoveries;
        outcome.stats.verifierRejects += result.verifierRejects;
        outcome.stats.faultTrips += result.faultTrips;
        outcome.stats.ctxHits += result.ctxHits;
        outcome.stats.ctxMisses += result.ctxMisses;
        outcome.stats.mrtWordScans += result.mrtWordScans;
        if (result.cacheProbed) {
            if (result.fromCache)
                ++outcome.stats.cacheHits;
            else
                ++outcome.stats.cacheMisses;
        }
        switch (result.exact.outcome) {
          case ExactOutcome::NotRun:
            break;
          case ExactOutcome::Sat:
            ++outcome.stats.exactSat;
            break;
          case ExactOutcome::Unsat:
            ++outcome.stats.exactUnsat;
            break;
          case ExactOutcome::Timeout:
            ++outcome.stats.exactTimeout;
            break;
          case ExactOutcome::Unsupported:
            ++outcome.stats.exactUnsupported;
            break;
        }
        if (result.exact.tightened)
            ++outcome.stats.exactTightened;
        if (result.exact.certified)
            ++outcome.stats.exactCertified;
    }
    count("jobs_succeeded", outcome.stats.succeeded);
    count("jobs_failed", outcome.stats.failed);
    count("jobs_degraded", outcome.stats.degraded);
    count("ctx.hits", outcome.stats.ctxHits);
    count("ctx.misses", outcome.stats.ctxMisses);
    count("mrt.word_scans", outcome.stats.mrtWordScans);
    count("cache.hits", outcome.stats.cacheHits);
    count("cache.misses", outcome.stats.cacheMisses);
    count("exact.sat", outcome.stats.exactSat);
    count("exact.unsat", outcome.stats.exactUnsat);
    count("exact.timeout", outcome.stats.exactTimeout);
    count("exact.unsupported", outcome.stats.exactUnsupported);
    count("exact.tightened", outcome.stats.exactTightened);
    count("exact.certified", outcome.stats.exactCertified);
    outcome.stats.metricsJson = internal.toJson();
    return outcome;
}

std::vector<CompileJob>
clusteredJobs(const std::vector<Dfg> &suite, const MachineDesc &machine,
              const CompileOptions &options)
{
    std::vector<CompileJob> jobs;
    jobs.reserve(suite.size());
    for (const Dfg &loop : suite) {
        jobs.push_back({&loop, &machine, options, true});
        if (options.trace.sink && !loop.name().empty())
            jobs.back().options.trace.tag = "c:" + loop.name();
    }
    return jobs;
}

std::vector<CompileJob>
unifiedJobs(const std::vector<Dfg> &suite, const MachineDesc &unified,
            const CompileOptions &options)
{
    std::vector<CompileJob> jobs;
    jobs.reserve(suite.size());
    for (const Dfg &loop : suite) {
        jobs.push_back({&loop, &unified, options, false});
        if (options.trace.sink && !loop.name().empty())
            jobs.back().options.trace.tag = "u:" + loop.name();
    }
    return jobs;
}

} // namespace cams
