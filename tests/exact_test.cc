/**
 * @file
 * Tests of the exact backend: the CDCL core (unit propagation,
 * conflict learning, restart schedule termination, deterministic
 * conflict budgets), the joint assignment+scheduling encoder's
 * round-trip through the independent verifier, and the driver's
 * backend protocol (exact optimality, race tighten/certify, the
 * heuristic default leaving the arm untouched).
 */

#include <gtest/gtest.h>

#include <vector>

#include "exact/encode.hh"
#include "exact/exact.hh"
#include "exact/sat.hh"
#include "graph/dfg.hh"
#include "machine/configs.hh"
#include "mrt/mrt.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "sched/verifier.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

// ---------------------------------------------------------------- SAT

TEST(SatSolver, EmptyInstanceIsSat)
{
    SatSolver solver;
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
}

TEST(SatSolver, UnitPropagationChains)
{
    SatSolver solver;
    const SatVar a = solver.newVar();
    const SatVar b = solver.newVar();
    const SatVar c = solver.newVar();
    solver.addClause(mkLit(a));                       // a
    solver.addClause(~mkLit(a), mkLit(b));            // a -> b
    solver.addClause(~mkLit(b), mkLit(c));            // b -> c
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
    EXPECT_EQ(solver.value(a), 1);
    EXPECT_EQ(solver.value(b), 1);
    EXPECT_EQ(solver.value(c), 1);
    // The chain resolves at the root: no search was needed.
    EXPECT_EQ(solver.stats().decisions, 0);
}

TEST(SatSolver, RootContradictionIsUnsat)
{
    SatSolver solver;
    const SatVar a = solver.newVar();
    solver.addClause(mkLit(a));
    solver.addClause(~mkLit(a));
    EXPECT_FALSE(solver.okay());
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
}

TEST(SatSolver, TinyUnsatNeedsConflictAnalysis)
{
    // All four clauses over {a, b}: UNSAT only via learning.
    SatSolver solver;
    const SatVar a = solver.newVar();
    const SatVar b = solver.newVar();
    solver.addClause(mkLit(a), mkLit(b));
    solver.addClause(mkLit(a), ~mkLit(b));
    solver.addClause(~mkLit(a), mkLit(b));
    solver.addClause(~mkLit(a), ~mkLit(b));
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
    EXPECT_GT(solver.stats().conflicts, 0);
}

TEST(SatSolver, SatisfiableAfterLearning)
{
    // XOR-ish structure with one satisfying corner.
    SatSolver solver;
    std::vector<SatVar> v;
    for (int i = 0; i < 6; ++i)
        v.push_back(solver.newVar());
    solver.addClause(mkLit(v[0]), mkLit(v[1]), mkLit(v[2]));
    solver.addClause(~mkLit(v[0]), ~mkLit(v[1]));
    solver.addClause(~mkLit(v[0]), ~mkLit(v[2]));
    solver.addClause(~mkLit(v[1]), ~mkLit(v[2]));
    solver.addClause(mkLit(v[3]), mkLit(v[4]));
    solver.addClause(~mkLit(v[3]), mkLit(v[5]));
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
    // Model check: exactly one of v0..v2 true.
    const int ones =
        solver.value(v[0]) + solver.value(v[1]) + solver.value(v[2]);
    EXPECT_EQ(ones, 1);
    EXPECT_TRUE(solver.value(v[3]) == 1 || solver.value(v[4]) == 1);
}

/** Pigeonhole principle php(n+1, n): n+1 pigeons, n holes, UNSAT and
 *  exponentially hard for resolution -- a dense conflict source. */
void
encodePigeonhole(SatSolver &solver, int pigeons, int holes)
{
    std::vector<std::vector<SatLit>> at(pigeons);
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p].push_back(mkLit(solver.newVar()));
    for (int p = 0; p < pigeons; ++p)
        solver.addClause(at[p]); // every pigeon sits somewhere
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(~at[p][h], ~at[q][h]);
}

TEST(SatSolver, PigeonholeUnsatSurvivesManyRestarts)
{
    // Regression: the Luby restart schedule must terminate past its
    // 7th restart (a subtraction bug once turned luby(7) into an
    // infinite loop). php(8,7) reliably burns thousands of conflicts
    // and well over seven restarts.
    SatSolver solver;
    encodePigeonhole(solver, 8, 7);
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
    EXPECT_GT(solver.stats().restarts, 7);
}

TEST(SatSolver, ConflictBudgetIsDeterministic)
{
    auto run = [](long budget) {
        SatSolver solver;
        encodePigeonhole(solver, 8, 7);
        SatBudget b;
        b.maxConflicts = budget;
        const SatStatus status = solver.solve(b);
        return std::make_pair(status, solver.stats().conflicts);
    };
    const auto [status, conflicts] = run(200);
    EXPECT_EQ(status, SatStatus::Unknown);
    EXPECT_EQ(conflicts, 200);
    // Same instance, same budget => identical cancellation point.
    const auto [status2, conflicts2] = run(200);
    EXPECT_EQ(status2, SatStatus::Unknown);
    EXPECT_EQ(conflicts2, 200);
}

// ------------------------------------------------------------ encoder

/** A 2-cluster-friendly loop: two parallel chains joined at the end,
 *  with a recurrence to pin RecMII. */
Dfg
twoChainLoop()
{
    Dfg graph;
    graph.setName("two_chain");
    const NodeId a0 = graph.addNode(Opcode::Load);
    const NodeId a1 = graph.addNode(Opcode::IntAlu);
    const NodeId a2 = graph.addNode(Opcode::FpMult);
    const NodeId b0 = graph.addNode(Opcode::Load);
    const NodeId b1 = graph.addNode(Opcode::IntAlu);
    const NodeId b2 = graph.addNode(Opcode::FpAdd);
    const NodeId join = graph.addNode(Opcode::IntAlu);
    const NodeId store = graph.addNode(Opcode::Store);
    graph.addEdge(a0, a1);
    graph.addEdge(a1, a2);
    graph.addEdge(a2, join);
    graph.addEdge(b0, b1);
    graph.addEdge(b1, b2);
    graph.addEdge(b2, join);
    graph.addEdge(join, store);
    graph.addEdge(join, a1, -1, 1); // recurrence through chain A
    return graph;
}

TEST(ExactEncoder, RoundTripsThroughVerifier)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MiiInfo mii =
        computeMii(graph, machine.unifiedEquivalent());
    ASSERT_GE(mii.mii, 1);

    ExactOptions options;
    ExactDecision decision;
    int ii = mii.mii;
    for (; ii <= mii.mii + 8; ++ii) {
        decision = exactDecideAtIi(graph, model, ii, options);
        ASSERT_NE(decision.verdict, ExactVerdict::Unsupported)
            << decision.detail;
        if (decision.verdict == ExactVerdict::Sat)
            break;
        ASSERT_EQ(decision.verdict, ExactVerdict::Unsat);
    }
    ASSERT_EQ(decision.verdict, ExactVerdict::Sat);

    // The decision is already verifier-approved internally; prove it
    // again here, independently.
    std::string why;
    EXPECT_TRUE(decision.loop.validate(machine, &why)) << why;
    EXPECT_TRUE(
        verifySchedule(decision.loop, model, decision.schedule, &why))
        << why;
    // Every original node must be placed and scheduled.
    EXPECT_GE(decision.loop.graph.numNodes(), graph.numNodes());
    EXPECT_EQ(decision.schedule.startCycle.size(),
              static_cast<size_t>(decision.loop.graph.numNodes()));
}

TEST(ExactEncoder, MatchesUnifiedMiiOnSuitePrefix)
{
    // On the reference 2-cluster machine the exact II can never beat
    // the unified-machine MII (it is a relaxation); sanity-check the
    // encoder agrees over a suite prefix.
    const std::vector<Dfg> suite = buildSuite(8, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    for (const Dfg &graph : suite) {
        const MiiInfo mii =
            computeMii(graph, machine.unifiedEquivalent());
        if (mii.mii <= 1)
            continue; // no II below MII to probe
        const ExactDecision below = exactDecideAtIi(
            graph, model, mii.mii - 1, ExactOptions{});
        EXPECT_NE(below.verdict, ExactVerdict::Sat)
            << graph.name() << " scheduled below the MII";
    }
}

TEST(ExactEncoder, BudgetCancellationReportsBudget)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MiiInfo mii =
        computeMii(graph, machine.unifiedEquivalent());
    ExactOptions options;
    options.conflictBudget = 1; // nothing real fits in one conflict
    const ExactDecision decision =
        exactDecideAtIi(graph, model, mii.mii, options);
    // Either the instance solved without a single conflict (fine) or
    // the budget fired and the verdict says so honestly.
    if (decision.verdict != ExactVerdict::Sat) {
        EXPECT_EQ(decision.verdict, ExactVerdict::Budget);
        EXPECT_FALSE(decision.detail.empty());
    }
}

TEST(ExactEncoder, NodeLimitIsUnsupported)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    ExactOptions options;
    options.nodeLimit = 2;
    const ExactDecision decision =
        exactDecideAtIi(graph, model, 4, options);
    EXPECT_EQ(decision.verdict, ExactVerdict::Unsupported);
    EXPECT_EQ(decision.detail, "node_limit");
}

TEST(ExactEncoder, SuiteProbesKeepTheirSolverCounters)
{
    // Suite loops probed at their MII on the 4-cluster machine, with
    // the encoding's size and the whole search pinned: the encoder
    // must emit the same variables and clauses in the same order, and
    // the solver must walk the same path to the same model.
    struct Pinned
    {
        int loop;
        int vars;
        long clauses;
        SatStatus status;
        long conflicts;
        long decisions;
        long propagations;
        uint64_t model;
    };
    const Pinned pinned[] = {
        {0, 936, 2251, SatStatus::Sat, 73, 522, 6800,
         0x314971A1E09C1D13ULL},
        {19, 4650, 12407, SatStatus::Sat, 1155, 4756, 213152,
         0x5CAE37B28E9121ABULL},
        {36, 1058, 2669, SatStatus::Unsat, 136, 548, 18213,
         0xCBF29CE484222325ULL},
        {69, 1767, 5162, SatStatus::Unsat, 401, 1281, 58539,
         0xCBF29CE484222325ULL},
    };
    const std::vector<Dfg> suite = buildSuite(70, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const ResourceModel model(machine);
    for (const Pinned &pin : pinned) {
        const Dfg &graph = suite[pin.loop];
        SCOPED_TRACE(graph.name());
        const int ii = computeMii(graph, machine).mii;
        ExactEncoder encoder(graph, model);
        SatSolver solver;
        ASSERT_TRUE(encoder.encode(ii, encoder.fastHorizon(ii), solver));
        SatBudget budget;
        budget.maxConflicts = ExactOptions{}.conflictBudget;
        const SatStatus status = solver.solve(budget);
        uint64_t digest = 0xCBF29CE484222325ULL;
        if (status == SatStatus::Sat) {
            for (SatVar v = 0; v < solver.numVars(); ++v)
                digest = (digest ^ (solver.value(v) ? 1 : 0)) *
                         0x100000001B3ULL;
        }
        EXPECT_EQ(solver.numVars(), pin.vars);
        EXPECT_EQ(solver.numClauses(), pin.clauses);
        EXPECT_EQ(status, pin.status);
        EXPECT_EQ(solver.stats().conflicts, pin.conflicts);
        EXPECT_EQ(solver.stats().decisions, pin.decisions);
        EXPECT_EQ(solver.stats().propagations, pin.propagations);
        EXPECT_EQ(digest, pin.model)
            << std::hex << std::uppercase << "0x" << digest << "ULL";
    }
}

// ------------------------------------------------------------- driver

TEST(ExactBackend, NamesRoundTrip)
{
    for (const CompileBackend backend :
         {CompileBackend::Heuristic, CompileBackend::Exact,
          CompileBackend::Race}) {
        CompileBackend parsed = CompileBackend::Heuristic;
        ASSERT_TRUE(
            parseCompileBackend(compileBackendName(backend), parsed));
        EXPECT_EQ(parsed, backend);
    }
    CompileBackend parsed;
    EXPECT_FALSE(parseCompileBackend("sat", parsed));
}

TEST(ExactBackend, HeuristicDefaultLeavesArmNotRun)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.exact.outcome, ExactOutcome::NotRun);
    EXPECT_EQ(result.exact.probes, 0);
}

TEST(ExactBackend, ExactModeIsOptimalAndVerified)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileOptions heuristic;
    const CompileResult base =
        compileClustered(graph, machine, heuristic);
    ASSERT_TRUE(base.success);

    CompileOptions exact;
    exact.backend = CompileBackend::Exact;
    const CompileResult result =
        compileClustered(graph, machine, exact);
    ASSERT_TRUE(result.success) << result.failureDetail;
    EXPECT_EQ(result.exact.outcome, ExactOutcome::Sat);
    EXPECT_EQ(result.degraded, DegradeLevel::None);
    // Optimality: never worse than the heuristic, never below MII.
    EXPECT_LE(result.ii, base.ii);
    EXPECT_GE(result.ii, result.mii.mii);
    EXPECT_GT(result.exact.probes, 0);
}

TEST(ExactBackend, RaceTightensOrCertifies)
{
    const std::vector<Dfg> suite = buildSuite(12, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    options.backend = CompileBackend::Race;
    for (const Dfg &graph : suite) {
        const CompileResult result =
            compileClustered(graph, machine, options);
        ASSERT_TRUE(result.success) << graph.name();
        if (result.degraded != DegradeLevel::None)
            continue;
        // The race arm must reach a conclusion on these small loops:
        // tightened, certified, or an explicit budget/unsupported.
        if (result.exact.tightened) {
            EXPECT_EQ(result.exact.outcome, ExactOutcome::Sat);
            EXPECT_LT(result.ii, result.exact.heuristicIi);
        } else if (result.exact.certified) {
            EXPECT_EQ(result.exact.outcome, ExactOutcome::Unsat);
            EXPECT_EQ(result.ii, result.exact.heuristicIi);
        } else {
            EXPECT_TRUE(result.exact.outcome ==
                            ExactOutcome::Timeout ||
                        result.exact.outcome ==
                            ExactOutcome::Unsupported)
                << graph.name() << ": outcome "
                << exactOutcomeName(result.exact.outcome);
        }
    }
}

TEST(ExactBackend, RaceNeverWorseThanHeuristic)
{
    const std::vector<Dfg> suite = buildSuite(12, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    CompileOptions heuristic;
    CompileOptions race;
    race.backend = CompileBackend::Race;
    for (const Dfg &graph : suite) {
        const CompileResult base =
            compileClustered(graph, machine, heuristic);
        const CompileResult raced =
            compileClustered(graph, machine, race);
        ASSERT_EQ(base.success, raced.success) << graph.name();
        if (!base.success || base.degraded != DegradeLevel::None)
            continue;
        EXPECT_LE(raced.ii, base.ii) << graph.name();
    }
}

} // namespace
} // namespace cams
