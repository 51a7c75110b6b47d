#include "exact/exact.hh"

#include <vector>

#include "exact/encode.hh"
#include "sched/verifier.hh"

namespace cams
{

const char *
compileBackendName(CompileBackend backend)
{
    switch (backend) {
      case CompileBackend::Heuristic:
        return "heuristic";
      case CompileBackend::Race:
        return "race";
    }
    return "?";
}

bool
parseCompileBackend(const std::string &name, CompileBackend &out)
{
    if (name == "heuristic")
        out = CompileBackend::Heuristic;
    else if (name == "race")
        out = CompileBackend::Race;
    else
        return false;
    return true;
}

const char *
exactOutcomeName(ExactOutcome outcome)
{
    switch (outcome) {
      case ExactOutcome::NotRun:
        return "not_run";
      case ExactOutcome::Sat:
        return "sat";
      case ExactOutcome::Unsat:
        return "unsat";
      case ExactOutcome::Timeout:
        return "timeout";
      case ExactOutcome::Unsupported:
        return "unsupported";
    }
    return "?";
}

const char *
exactProofName(ExactProof proof)
{
    switch (proof) {
      case ExactProof::None:
        return "none";
      case ExactProof::Counts:
        return "counts";
      case ExactProof::Horizon:
        return "horizon";
    }
    return "?";
}

namespace
{

/** One (ii, horizon) solve, horizon timeFree for the resource-count
 *  relaxation, with the cluster phases seeded from @p hint unless it
 *  is empty; accumulates counters into @p out. */
SatStatus
solveWindow(ExactEncoder &encoder, int ii, int horizon,
            const std::vector<ClusterId> &hint,
            const ExactOptions &options, ExactDecision &out,
            SatSolver &solver)
{
    std::string why;
    if (!encoder.encode(ii, horizon, solver, &why)) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = why;
        return SatStatus::Unknown;
    }
    if (!hint.empty())
        encoder.hintPartition(solver, hint);
    SatBudget budget;
    budget.maxConflicts = options.conflictBudget;
    budget.timeBudgetMs = options.timeBudgetMs;
    const SatStatus status = solver.solve(budget);
    out.conflicts += solver.stats().conflicts;
    out.decisions += solver.stats().decisions;
    out.propagations += solver.stats().propagations;
    return status;
}

} // namespace

ExactDecision
exactDecideAtIi(const Dfg &graph, const ResourceModel &model, int ii,
                const ExactOptions &options)
{
    ExactDecision out;
    if (graph.numNodes() > options.nodeLimit) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = "node_limit";
        return out;
    }

    ExactEncoder encoder(graph, model);
    std::string why;
    if (!encoder.supported(&why)) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = why;
        return out;
    }

    const int fast = encoder.fastHorizon(ii);
    const int sound = encoder.soundHorizon(ii);
    if (fast > options.horizonLimit) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = "horizon_limit";
        return out;
    }

    // Resource counts first: UNSAT certifies the II at any horizon.
    // SAT, or a budget blow-out, proves nothing; the ladder decides.
    // A SAT model's cluster partition fits every pool's slot count at
    // this II, so it is where the timed search starts looking.
    std::vector<ClusterId> hint;
    {
        SatSolver solver;
        const SatStatus status =
            solveWindow(encoder, ii, ExactEncoder::timeFree, {},
                        options, out, solver);
        if (status == SatStatus::Unsat) {
            out.verdict = ExactVerdict::Unsat;
            out.proof = ExactProof::Counts;
            return out;
        }
        if (status == SatStatus::Sat)
            hint = encoder.partition(solver);
    }

    // Horizon ladder: hunt for a schedule in the small window first
    // (SAT there is final), escalate to the completeness-preserving
    // window only to turn UNSAT into a certificate. Each rung seeds
    // its cluster phases with the hint. A phase picks the first
    // descent and adds no clause, so it changes which schedule a SAT
    // rung finds and how many conflicts a rung spends, never whether
    // a schedule exists: SAT is still decoded and re-verified, and
    // UNSAT still counts only at the sound horizon.
    int horizon = fast;
    while (true) {
        SatSolver solver;
        const SatStatus status = solveWindow(encoder, ii, horizon, hint,
                                             options, out, solver);
        if (status == SatStatus::Sat) {
            encoder.decode(solver, out.loop, out.schedule);
            std::string reject;
            if (!out.loop.validate(model.machine(), &reject) ||
                !verifySchedule(out.loop, model, out.schedule,
                                &reject)) {
                // An encoder bug must never masquerade as an exact
                // answer; degrade to Budget and keep the detail.
                out.verdict = ExactVerdict::Budget;
                out.detail = "decode_reject: " + reject;
                return out;
            }
            out.verdict = ExactVerdict::Sat;
            return out;
        }
        if (status == SatStatus::Unknown) {
            out.verdict = ExactVerdict::Budget;
            out.detail = "budget";
            return out;
        }
        // UNSAT: a certificate only at the sound horizon.
        if (horizon >= sound) {
            out.verdict = ExactVerdict::Unsat;
            out.proof = ExactProof::Horizon;
            return out;
        }
        if (sound > options.horizonLimit) {
            out.verdict = ExactVerdict::Budget;
            out.detail = "horizon_capped";
            return out;
        }
        horizon = sound;
    }
}

} // namespace cams
