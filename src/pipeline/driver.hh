/**
 * @file
 * End-to-end compilation drivers implementing the paper's Figure 5
 * process: compute the unified-machine MII, run cluster assignment at
 * the current II, hand the annotated loop to a cluster-oblivious
 * modulo scheduler, and on any failure restart the whole pipeline --
 * including a fresh assignment -- at II + 1.
 *
 * Hardening: compileClustered never aborts and always returns a
 * classified result. Invariant violations inside the search
 * (InternalError from cams_check) are caught and charged to the
 * current II; verifier rejections retry at II + 1 instead of
 * panicking; an optional wall-clock budget bounds the search. When
 * the primary search runs dry, a degradation ladder takes over:
 *
 *  1. ExhaustiveAssign -- for small loops, enumerate every cluster
 *     partition (assign/exhaustive) and schedule the first feasible
 *     one. Optimal placement, exponential cost, so gated on node
 *     count.
 *  2. SingleCluster -- place everything on cluster 0 and serialize
 *     one op per cycle (pipeline/degrade). Always cheap; fails only
 *     when cluster 0 cannot execute the loop at all.
 *
 * A fallback schedule still passes the independent verifier; callers
 * that care about schedule *quality* (the paper's figures) must treat
 * degraded > None as a failure, which bench/ and report/ do.
 */

#ifndef CAMS_PIPELINE_DRIVER_HH
#define CAMS_PIPELINE_DRIVER_HH

#include <memory>
#include <string>

#include "assign/assigner.hh"
#include "exact/exact.hh"
#include "machine/machine.hh"
#include "sched/mii.hh"
#include "sched/schedule.hh"
#include "support/fault.hh"
#include "support/trace.hh"

namespace cams
{

class CompileCache;

/** Which phase-two scheduler the driver uses. */
enum class SchedulerKind
{
    Swing,     ///< the paper's choice
    Iterative, ///< Rau's IMS (cross-check)
};

/** Which rung of the degradation ladder produced a result. */
enum class DegradeLevel
{
    None,             ///< the primary Figure 5 search succeeded
    ExhaustiveAssign, ///< exhaustive partition enumeration (small loops)
    SingleCluster,    ///< everything on cluster 0, fully serialized
};

/** Stable snake_case name of a degrade level (for logs and JSON). */
const char *degradeLevelName(DegradeLevel level);

/** Driver knobs. */
struct CompileOptions
{
    AssignOptions assign;
    SchedulerKind scheduler = SchedulerKind::Swing;

    /**
     * Engine selection (clustered compiles only). Heuristic is the
     * paper's cascade; Exact replaces the II search with ascending
     * SAT decisions (first SAT II is provably optimal); Race runs the
     * heuristic first and then lets the exact arm tighten the II or
     * certify it optimal within `exact`'s budgets. See
     * exact/exact.hh for the protocol and certification semantics.
     */
    CompileBackend backend = CompileBackend::Heuristic;

    /** Budgets and limits of the exact arm (Exact and Race modes). */
    ExactOptions exact;

    /**
     * Give up when II exceeds mii * 4 + this slack (a diagnostic
     * backstop; real loops converge long before).
     */
    int iiSlack = 64;

    /** Verify every produced schedule with the independent checker. */
    bool verify = true;

    /**
     * Run the degradation ladder when the primary search fails. Off,
     * the driver reports the classified failure and nothing else
     * (the paper-faithful behavior the figures are measured with).
     */
    bool fallback = true;

    /** Node-count ceiling of the exhaustive fallback rung. */
    int exhaustiveFallbackNodes = 8;

    /**
     * Wall-clock budget for one compile in milliseconds; 0 disables.
     * Checked between II attempts and ladder rungs, so one attempt
     * always runs to completion -- this bounds runaway *searches*,
     * not single steps. Expiry classifies as FailureKind::Timeout
     * (the cheap SingleCluster rung may still rescue the compile).
     */
    double timeBudgetMs = 0.0;

    /**
     * Fault injector for stress testing; null = no injection. The
     * injector is stateful: share one per concurrent compile, never
     * across compiles whose determinism matters.
     */
    std::shared_ptr<FaultInjector> faults;

    /**
     * Tracing: the shared sink (null = off) and this compile's job
     * tag. Propagated into the assigner and the scheduler so one
     * compile produces one coherent event stream. Per-phase wall
     * times in CompileResult are recorded regardless of this.
     */
    TraceConfig trace;

    /**
     * Persistent compile cache (non-owning; null = off). Probed
     * before the II search: a full hit returns the stored result
     * (after re-verification), and on a miss a warm-start hint may
     * seed the search at the previously achieved II -- always behind
     * a mandatory verify, so a stale hint degrades to the cold path.
     * Compiles with an active fault injector bypass the cache in
     * both directions.
     */
    CompileCache *cache = nullptr;

    /**
     * Namespace salt folded into every CacheKey (full entries and
     * warm-start hints). Two compiles that differ only in salt never
     * share cache state; the compile server salts each tenant's id
     * here so co-resident tenants cannot observe one another through
     * hit timing or hint side channels. 0 = the default (unsalted)
     * namespace every single-tenant tool uses.
     */
    uint64_t cacheSalt = 0;
};

/**
 * Wall-clock cost of each pipeline phase, milliseconds, summed over
 * every II attempt of one compile. Always recorded, tracing on or
 * off. orderMs and routeMs are sub-slices of assignMs (the §4.1
 * ordering work and the copy-routing work inside the assigner);
 * totalMs is the whole compile including MII computation and the
 * degradation ladder.
 */
struct PhaseTimes
{
    double orderMs = 0.0;
    double assignMs = 0.0;
    double routeMs = 0.0;
    double scheduleMs = 0.0;
    double verifyMs = 0.0;
    double totalMs = 0.0;
};

/** Outcome of compiling one loop for one machine. */
struct CompileResult
{
    bool success = false;

    /** Achieved initiation interval. */
    int ii = 0;

    /** The MII bounds the search started from. */
    MiiInfo mii;

    /** Annotated loop actually scheduled (copies included). */
    AnnotatedLoop loop;

    /** The final schedule. */
    Schedule schedule;

    /** Copies inserted by assignment. */
    int copies = 0;

    /** IIs tried before success (1 = first try). */
    int attempts = 0;

    /** II attempts whose cluster assignment failed outright. */
    int assignRetries = 0;

    /** Evictions performed by the §4.3 iteration, over all attempts. */
    int evictions = 0;

    /**
     * Failure classification; None on success. On failure this names
     * the *last* way the search died (e.g. VerifierReject when the
     * final II's schedule was rejected), which is what a report needs
     * to distinguish "infeasible machine" from "search exhausted".
     */
    FailureKind failure = FailureKind::None;

    /** Human-readable diagnosis matching `failure` (failures only). */
    std::string failureDetail;

    /** Last II the primary search attempted; 0 when it never ran. */
    int finalIiTried = 0;

    /** Ladder rung that produced the result (None = primary path). */
    DegradeLevel degraded = DegradeLevel::None;

    /** cams_check invariant violations recovered during the search. */
    int invariantRecoveries = 0;

    /** Schedules the independent verifier rejected mid-search. */
    int verifierRejects = 0;

    /** Injected faults that fired during this compile. */
    long faultTrips = 0;

    /** Per-phase wall-time breakdown (always recorded). */
    PhaseTimes phaseMs;

    /**
     * Exact-arm accounting (outcome NotRun on the heuristic backend).
     * Transient like the cache flags: never serialized into cache
     * entries, so a cache-served result always reads not_run.
     */
    ExactStats exact;

    /** LoopContext queries answered from cache. */
    long ctxHits = 0;

    /** LoopContext facts computed fresh. */
    long ctxMisses = 0;

    /** MRT occupancy words examined by the assigner and scheduler. */
    long mrtWordScans = 0;

    /**
     * Cache bookkeeping, stamped by the driver per compile and never
     * serialized into cache entries (a served copy of an entry gets
     * fromCache = true; the stored bytes always say false).
     */
    bool cacheProbed = false; ///< a cache lookup ran for this compile
    bool fromCache = false;   ///< result served from the compile cache
    bool hintUsed = false;    ///< warm-start hint satisfied the search
    bool hintStale = false;   ///< hint probe failed; cold path used
};

/** Creates a scheduler instance of the given kind. */
std::unique_ptr<ModuloScheduler> makeScheduler(SchedulerKind kind);

/**
 * Compiles a loop for a clustered machine: assignment + scheduling
 * with the Figure 5 retry loop. The II search starts at the MII of
 * the equally wide unified machine.
 */
CompileResult compileClustered(const Dfg &graph,
                               const MachineDesc &machine,
                               const CompileOptions &options = {});

/**
 * Compiles a loop for a single-cluster machine (no assignment, no
 * copies): the baseline II of the paper's comparisons.
 */
CompileResult compileUnified(const Dfg &graph, const MachineDesc &machine,
                             const CompileOptions &options = {});

} // namespace cams

#endif // CAMS_PIPELINE_DRIVER_HH
