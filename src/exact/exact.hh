/**
 * @file
 * The exact arm: per-II SAT decisions over the joint
 * cluster-assignment + modulo-scheduling problem, and the shared
 * types the driver uses to select and report backends.
 *
 * The race backend (CompileBackend::Race) is the one consumer: the
 * heuristic cascade answers first under the ordinary compile budget;
 * the exact arm then probes II = MII .. II_h - 1 in ascending order.
 * A SAT answer *tightens* the result to a strictly better II (optimal,
 * since every lower II carries an UNSAT certificate); an unbroken run
 * of UNSAT answers *certifies* the heuristic II optimal; a budget
 * blow-out leaves the heuristic answer standing with outcome Timeout,
 * and a loop outside the encodable fragment keeps it with outcome
 * Unsupported, so it never reads as optimal. When the heuristic finds
 * nothing, the arm searches the whole II window before the driver's
 * degradation ladder.
 *
 * Budgets are conflict counts first (deterministic across machines
 * and sanitizers -- the same instance always dies at the same
 * conflict) with wall-clock as a backstop, so CI behavior is
 * reproducible.
 *
 * One per-II decision tries three instances of the encoder, in order
 * (encode.hh):
 *
 *  1. counts: the time-free resource-count relaxation. UNSAT is a
 *     certificate at every horizon, so the decision ends Unsat with
 *     proof Counts; SAT or an exhausted budget proves nothing and
 *     falls through.
 *  2. fast: the timed encoding at fastHorizon. SAT is final; UNSAT
 *     is not a certificate.
 *  3. sound: the timed encoding at soundHorizon. UNSAT ends Unsat
 *     with proof Horizon.
 *
 * Each instance runs in a fresh solver under the full budget. When
 * step 1 is SAT, its model's node -> cluster partition seeds the
 * saved phases of steps 2 and 3's cluster variables, so their first
 * descent tries a partition that already fits every pool's slot
 * count. A phase adds no clause: it changes which schedule a SAT
 * step finds and the conflicts a step spends, never whether a
 * schedule exists, so the verdicts are those of an unseeded ladder.
 *
 * Certification honesty: a SAT answer is decoded and re-checked by
 * the independent verifier before anyone sees it, and an UNSAT
 * answer counts only from the relaxation or from the encoder at its
 * completeness-preserving horizon; anything else degrades to Budget.
 */

#ifndef CAMS_EXACT_EXACT_HH
#define CAMS_EXACT_EXACT_HH

#include <string>

#include "assign/assignment.hh"
#include "exact/sat.hh"
#include "sched/schedule.hh"

namespace cams
{

/** Which engine compiles a clustered loop. */
enum class CompileBackend
{
    Heuristic, ///< the paper's Figure 5 cascade (default)
    Race,      ///< heuristic first, exact arm tightens or certifies
};

/** Stable lowercase name ("heuristic", "race"). */
const char *compileBackendName(CompileBackend backend);

/** Parses a backend name; returns false on an unknown one. */
bool parseCompileBackend(const std::string &name, CompileBackend &out);

/** Knobs of the exact arm. */
struct ExactOptions
{
    /**
     * Conflict budget per II decision; the deterministic primary
     * bound (same instance, same budget => same answer everywhere).
     * 0 = unbounded.
     */
    long conflictBudget = 50000;

    /**
     * Wall-clock backstop per II decision, milliseconds; 0 = none.
     * Non-deterministic by nature -- tests and CI gates should bound
     * by conflicts and leave this 0.
     */
    double timeBudgetMs = 0.0;

    /** Loops above this node count are not encoded (Unsupported). */
    int nodeLimit = 64;

    /**
     * Ceiling on the encoded time horizon. When the completeness-
     * preserving horizon exceeds it, SAT answers still count but
     * UNSAT degrades to Budget (no false certificates).
     */
    int horizonLimit = 2048;

    /** Most II values probed per compile. */
    int maxProbes = 16;
};

/** How one per-II decision ended. */
enum class ExactVerdict
{
    Sat,         ///< schedule found, decoded and verifier-approved
    Unsat,       ///< certificate: no schedule exists at this II
    Budget,      ///< conflict/wall budget exhausted (or capped horizon)
    Unsupported, ///< instance not encodable (see detail)
};

/** Which encoding certified an Unsat decision. */
enum class ExactProof
{
    None,    ///< not an Unsat decision
    Counts,  ///< the time-free resource-count relaxation
    Horizon, ///< the timed encoding at soundHorizon
};

/** Stable lowercase name of a proof ("none", "counts", "horizon"). */
const char *exactProofName(ExactProof proof);

/** Aggregate outcome of the exact arm of one compile. */
enum class ExactOutcome
{
    NotRun,      ///< heuristic backend, cache hit, or arm skipped
    Sat,         ///< exact schedule is the result
    Unsat,       ///< certified: no lower II exists
    Timeout,     ///< budget died before an answer
    Unsupported, ///< loop/machine outside the encodable fragment
};

/** Stable lowercase name of an outcome. */
const char *exactOutcomeName(ExactOutcome outcome);

/** Per-compile accounting of the exact arm (CompileResult::exact). */
struct ExactStats
{
    ExactOutcome outcome = ExactOutcome::NotRun;

    /** Race mode: the exact arm beat the heuristic II. */
    bool tightened = false;

    /** Race mode: UNSAT certificates cover [MII, heuristic II). */
    bool certified = false;

    /** II of the exact-found schedule; 0 = none. */
    int exactIi = 0;

    /** The heuristic II the race arm started from; 0 = none. */
    int heuristicIi = 0;

    /** II decision instances solved. */
    int probes = 0;

    /** Unsat decisions, by the proof that certified them. */
    int unsatByCounts = 0;
    int unsatByHorizon = 0;

    /** Summed solver counters across all probes. */
    long conflicts = 0;
    long decisions = 0;
    long propagations = 0;

    /** Wall time spent inside the exact arm, milliseconds. */
    double solveMs = 0.0;

    /** Unsupported/budget slug for logs ("point_to_point_machine"). */
    std::string detail;
};

/** Result of one per-II decision. */
struct ExactDecision
{
    ExactVerdict verdict = ExactVerdict::Unsupported;

    /** Unsat only: the encoding whose UNSAT is the certificate. */
    ExactProof proof = ExactProof::None;

    /** Sat only: the decoded, verifier-approved result. */
    AnnotatedLoop loop;
    Schedule schedule;

    /** Solver counters summed over every instance solved. */
    long conflicts = 0;
    long decisions = 0;
    long propagations = 0;

    std::string detail;
};

/**
 * Decides schedulability of the loop at exactly the given II. SAT
 * answers are decoded and re-verified before being reported; a
 * decode the verifier rejects degrades to Budget (never a lie).
 */
ExactDecision exactDecideAtIi(const Dfg &graph,
                              const ResourceModel &model, int ii,
                              const ExactOptions &options);

} // namespace cams

#endif // CAMS_EXACT_EXACT_HH
