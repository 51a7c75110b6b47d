/**
 * @file
 * The parallel batch-compilation engine.
 *
 * Every paper figure compiles hundreds of loop x machine x variant
 * pairs that are completely independent of one another, so the batch
 * layer fans CompileJobs across a fixed ThreadPool and collects the
 * CompileResults back **in input order**, regardless of the thread
 * count. Each job runs the ordinary single-threaded compile path
 * (compileClustered / compileUnified), which makes the results
 * bit-identical to a serial loop -- a property the tests assert.
 *
 * Alongside the results the engine records per-job wall time and
 * aggregates the pipeline's per-phase counters (II attempts, failed
 * assignment retries, evictions) into a BatchStats summary that the
 * experiment binaries publish for PR-over-PR tracking.
 *
 * Robustness: one pathological job must not wedge or kill a suite. A
 * job that throws (anything, not just InternalError -- bad_alloc,
 * logic errors) is captured into its own CompileResult as a
 * classified FailureKind::InternalInvariant failure instead of
 * propagating out of the pool, and an optional per-job deadline is
 * stamped into every job's CompileOptions so runaway searches time
 * out individually. Failed jobs are tallied per FailureKind.
 */

#ifndef CAMS_PIPELINE_BATCH_HH
#define CAMS_PIPELINE_BATCH_HH

#include <array>
#include <string>
#include <vector>

#include "support/fault.hh"
#include "support/metrics.hh"

#include "machine/machine.hh"
#include "pipeline/driver.hh"

namespace cams
{

/** One independent unit of batch work: compile one loop for one
 *  machine. Pointees must outlive the BatchRunner::run call. */
struct CompileJob
{
    const Dfg *loop = nullptr;
    const MachineDesc *machine = nullptr;
    CompileOptions options;

    /** False compiles the unified baseline path instead. */
    bool clustered = true;
};

/** Aggregate accounting of one batch run. */
struct BatchStats
{
    int jobs = 0;
    int succeeded = 0;
    int failed = 0;

    /** Worker threads the batch ran on. */
    int threads = 1;

    /** Wall-clock time of the whole batch, milliseconds. */
    double wallMillis = 0.0;

    /** Sum of per-job wall times (the serial-equivalent cost). */
    double cpuMillis = 0.0;

    /** Total II values tried across all jobs. */
    long iiAttempts = 0;

    /** II attempts whose cluster assignment failed. */
    long assignRetries = 0;

    /** Evictions performed by the assignment iteration. */
    long evictions = 0;

    /** Copy operations inserted across all successful jobs. */
    long copies = 0;

    /** Failed jobs per failure classification, FailureKind order. */
    std::array<long, numFailureKinds> failuresByKind{};

    /** Successes rescued by the driver's degradation ladder. */
    int degraded = 0;

    /** Jobs whose compile threw and was captured by the runner. */
    int capturedExceptions = 0;

    /** cams_check invariant violations recovered across all jobs. */
    long invariantRecoveries = 0;

    /** Verifier rejections absorbed mid-search across all jobs. */
    long verifierRejects = 0;

    /** Injected faults that fired across all jobs. */
    long faultTrips = 0;

    /** LoopContext queries answered from cache across all jobs. */
    long ctxHits = 0;

    /** LoopContext facts computed fresh across all jobs. */
    long ctxMisses = 0;

    /** MRT occupancy words examined by the assigner and scheduler. */
    long mrtWordScans = 0;

    /** Jobs served whole from the persistent compile cache. */
    long cacheHits = 0;

    /** Jobs that probed the cache and compiled cold. */
    long cacheMisses = 0;

    /** Jobs whose warm-start hint satisfied the search. */
    long hintUsed = 0;

    /** Jobs whose hint probe failed and fell back to the cold path. */
    long hintStale = 0;

    /** Exact-arm outcomes (exact and race backends; see exact.hh). */
    long exactSat = 0;         ///< exact schedule became the result
    long exactUnsat = 0;       ///< heuristic II certified optimal
    long exactTimeout = 0;     ///< exact budget died before an answer
    long exactUnsupported = 0; ///< loop/machine outside the encoding
    long exactTightened = 0;   ///< race arm beat the heuristic II
    long exactCertified = 0;   ///< race arm certified the heuristic II

    /**
     * Metrics snapshot of this run (MetricsRegistry::toJson of the
     * run's internal registry: ii_slack and friends). Embedded in
     * toJson() under "metrics" when non-empty.
     */
    std::string metricsJson;

    /** One-line JSON rendering for machine-readable logs. */
    std::string toJson() const;
};

/** Everything a batch run produces, results in input order. */
struct BatchOutcome
{
    std::vector<CompileResult> results;

    /** Wall time of each job, milliseconds, input order. */
    std::vector<double> jobMillis;

    BatchStats stats;
};

/** Fans CompileJobs over a worker pool. */
class BatchRunner
{
  public:
    /**
     * Runs every job and returns outcomes in input order.
     *
     * @param threads worker count (clamped to at least 1). The
     *        compile path stays single-threaded per job, so the
     *        results are identical for every thread count.
     * @param jobDeadlineMs per-job wall-clock budget applied to every
     *        job that does not already carry one
     *        (CompileOptions::timeBudgetMs); 0 applies none.
     * @param metrics optional registry that additionally receives
     *        every record of this run, for aggregation across several
     *        batches (suite mode runs unified + clustered). The
     *        BatchStats snapshot always comes from a fresh internal
     *        registry, so per-run numbers never mix.
     *
     * Metrics recorded per run: counter jobs_succeeded/jobs_failed/
     * jobs_degraded; histograms job_ms and assign_ms over all jobs,
     * ii_slack (achieved II - MII) over non-degraded successes, and
     * final_ii_tried over failures.
     *
     * A compile that throws is captured as that job's classified
     * FailureKind::InternalInvariant result; the other jobs are
     * unaffected. A malformed job (null loop or machine) is a harness
     * bug and still throws std::invalid_argument after the rest of
     * the batch finished; the pool itself never deadlocks on a
     * throwing job.
     */
    static BatchOutcome run(const std::vector<CompileJob> &jobs,
                            int threads, double jobDeadlineMs = 0.0,
                            MetricsRegistry *metrics = nullptr);
};

/** Builds one clustered job per suite loop on the given machine. */
std::vector<CompileJob> clusteredJobs(const std::vector<Dfg> &suite,
                                      const MachineDesc &machine,
                                      const CompileOptions &options = {});

/** Builds one unified-baseline job per suite loop. */
std::vector<CompileJob> unifiedJobs(const std::vector<Dfg> &suite,
                                    const MachineDesc &unified,
                                    const CompileOptions &options = {});

} // namespace cams

#endif // CAMS_PIPELINE_BATCH_HH
