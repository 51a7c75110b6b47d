/**
 * @file
 * Tests of the exact arm: the CDCL core (unit propagation,
 * conflict learning, restart schedule termination, deterministic
 * conflict budgets), the joint assignment+scheduling encoder's
 * round-trip through the independent verifier, the time-free
 * resource-count relaxation against judges outside it, the
 * relaxation's partition as a phase hint that moves no verdict, and
 * the driver's backend protocol (race tighten/certify, race keeping
 * the heuristic answer for an unencodable loop, the heuristic default
 * leaving the arm untouched).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "assign/exhaustive.hh"
#include "exact/encode.hh"
#include "exact/exact.hh"
#include "exact/sat.hh"
#include "graph/builder.hh"
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
    DfgBuilder graph("two_chain");
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
    return graph.build();
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

// ------------------------------------------ resource-count relaxation

/** Solves one fresh instance of @p graph at (ii, horizon); horizon
 *  ExactEncoder::timeFree is the resource-count relaxation. */
SatStatus
solveAt(const Dfg &graph, const ResourceModel &model, int ii,
        int horizon = ExactEncoder::timeFree,
        long budget = ExactOptions{}.conflictBudget,
        long *conflicts = nullptr)
{
    ExactEncoder encoder(graph, model);
    SatSolver solver;
    EXPECT_TRUE(encoder.encode(ii, horizon, solver));
    SatBudget limit;
    limit.maxConflicts = budget;
    const SatStatus status = solver.solve(limit);
    if (conflicts)
        *conflicts = solver.stats().conflicts;
    return status;
}

/** The two reference machines, with the number of race probes the
 *  suite makes on each and how many of them are Unsat. */
struct RaceMachine
{
    MachineDesc machine;
    int raceProbes;
    int raceUnsat;
};

std::vector<RaceMachine>
raceMachines()
{
    return {{busedGpMachine(2, 2, 1), 45, 39},
            {busedGpMachine(4, 4, 2), 38, 19}};
}

const std::vector<Dfg> &
fullSuite()
{
    static const std::vector<Dfg> suite =
        buildSuite(1327, defaultSuiteSeed);
    return suite;
}

/** Default-options compiles of fullSuite() on @p machine, in suite
 *  order; computed once per machine name. */
const std::vector<CompileResult> &
heuristicCompiles(const MachineDesc &machine)
{
    static std::map<std::string, std::vector<CompileResult>> memo;
    std::vector<CompileResult> &results = memo[machine.name];
    if (results.empty()) {
        for (const Dfg &graph : fullSuite())
            results.push_back(compileClustered(graph, machine));
    }
    return results;
}

/**
 * Calls @p probe(graph, ii) on every probe the race arm makes over
 * the suite on @p machine, in race order: [MII, heuristic II) per
 * heuristically scheduled loop, at most maxProbes IIs, stopping at the
 * first verdict @p probe returns that is not Unsat. Returns the number
 * of probes.
 */
template <typename Probe>
int
forEachRaceProbe(const MachineDesc &machine, Probe probe)
{
    const std::vector<CompileResult> &compiles = heuristicCompiles(machine);
    int probes = 0;
    for (size_t i = 0; i < compiles.size(); ++i) {
        const CompileResult &heuristic = compiles[i];
        if (!heuristic.success || heuristic.degraded != DegradeLevel::None)
            continue;
        const int last =
            std::min(heuristic.ii - 1,
                     heuristic.mii.mii + ExactOptions{}.maxProbes - 1);
        for (int ii = heuristic.mii.mii; ii <= last; ++ii) {
            ++probes;
            if (probe(fullSuite()[i], ii) != ExactVerdict::Unsat)
                break;
        }
    }
    return probes;
}

TEST(CountRelaxation, SatWhereverTheHeuristicSchedules)
{
    // Oracle: a verifier-approved heuristic schedule is a witness that
    // the II is feasible, so the relaxation must not refute it.
    for (const RaceMachine &race : raceMachines()) {
        SCOPED_TRACE(race.machine.name);
        const ResourceModel model(race.machine);
        int witnesses = 0;
        const std::vector<CompileResult> &compiles =
            heuristicCompiles(race.machine);
        for (size_t i = 0; i < compiles.size(); ++i) {
            const Dfg &graph = fullSuite()[i];
            const CompileResult &result = compiles[i];
            if (!result.success ||
                !verifySchedule(result.loop, model, result.schedule))
                continue;
            ++witnesses;
            EXPECT_EQ(solveAt(graph, model, result.ii), SatStatus::Sat)
                << graph.name() << " refuted at its heuristic II "
                << result.ii;
        }
        EXPECT_EQ(witnesses, 1327);
    }
}

TEST(CountRelaxation, UnsatImpliesSoundHorizonUnsat)
{
    // Oracle: the complete timed encoding at soundHorizon. Every race
    // probe of the suite is replayed; where the relaxation certifies,
    // the full encoding must agree. The relaxation also proves every
    // Unsat probe of the suite, so none reaches the horizon ladder.
    for (const RaceMachine &race : raceMachines()) {
        SCOPED_TRACE(race.machine.name);
        const ResourceModel model(race.machine);
        int refuted = 0;
        const int probes = forEachRaceProbe(
            race.machine, [&](const Dfg &graph, int ii) {
                if (solveAt(graph, model, ii) != SatStatus::Unsat)
                    return exactDecideAtIi(graph, model, ii,
                                           ExactOptions{})
                        .verdict;
                ++refuted;
                const int sound =
                    ExactEncoder(graph, model).soundHorizon(ii);
                EXPECT_EQ(solveAt(graph, model, ii, sound),
                          SatStatus::Unsat)
                    << graph.name() << " at II " << ii;
                return ExactVerdict::Unsat;
            });
        EXPECT_EQ(probes, race.raceProbes);
        EXPECT_EQ(refuted, race.raceUnsat);
    }
}

TEST(CountRelaxation, UnsatImpliesNoExhaustivePartition)
{
    // Oracle: the count-mode partition enumerator, which shares no
    // code with the encoder. It also applies the annotated recurrence
    // bound, so it may refute more -- never less. The relaxation
    // refutes 39 of these (loop, II) pairs on 2c and none on 4c, where
    // loops this small fit at their MII.
    struct Case
    {
        MachineDesc machine;
        int maxNodes;
    };
    const Case cases[] = {{busedGpMachine(2, 2, 1), 14},
                          {busedGpMachine(4, 4, 2), 8}};
    int refuted = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.machine.name);
        const ResourceModel model(c.machine);
        int checked = 0;
        for (const Dfg &graph : fullSuite()) {
            if (graph.numNodes() > c.maxNodes)
                continue;
            const int mii = computeMii(graph, c.machine).mii;
            for (int ii = mii; ii <= mii + 1; ++ii) {
                ++checked;
                if (solveAt(graph, model, ii) != SatStatus::Unsat)
                    continue;
                ++refuted;
                EXPECT_EQ(exhaustiveFeasible(graph, model, ii,
                                             c.maxNodes),
                          ExhaustiveVerdict::Infeasible)
                    << graph.name() << " at II " << ii;
            }
        }
        EXPECT_GT(checked, 0);
    }
    EXPECT_GT(refuted, 0);
}

TEST(CountRelaxation, OutOfBudgetFallsThroughToTheLadder)
{
    // A relaxation that dies on its budget proves nothing: the
    // decision must be exactly what the fast -> sound ladder alone
    // says, with the relaxation's spent conflicts added on top. Every
    // suite loop is probed from its MII up to its heuristic II on the
    // 4-cluster machine, at a budget of exactly the conflicts the
    // relaxation needs to finish, which it then just misses. A few
    // relaxations outlast a fast SAT answer (synth364 at II 1: 73
    // conflicts, against 48), so the ladder still answers there.
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const ResourceModel model(machine);
    int fellThrough = 0;
    int answered = 0;
    const std::vector<CompileResult> &compiles = heuristicCompiles(machine);
    for (size_t i = 0; i < compiles.size(); ++i) {
        const Dfg &graph = fullSuite()[i];
        const CompileResult &heuristic = compiles[i];
        if (graph.numNodes() > ExactOptions{}.nodeLimit)
            continue; // never encoded
        ASSERT_TRUE(heuristic.success) << graph.name();
        const ExactEncoder encoder(graph, model);
        for (int ii = heuristic.mii.mii; ii <= heuristic.ii; ++ii) {
            const int counts = ExactEncoder::timeFree;
            long budget = 0;
            solveAt(graph, model, ii, counts, 0, &budget);
            long counted = 0;
            if (budget == 0 ||
                solveAt(graph, model, ii, counts, budget, &counted) !=
                    SatStatus::Unknown)
                continue;
            ++fellThrough;
            long fastConflicts = 0;
            long soundConflicts = 0;
            ExactVerdict ladder = ExactVerdict::Budget;
            const SatStatus fast =
                solveAt(graph, model, ii, encoder.fastHorizon(ii), budget,
                        &fastConflicts);
            if (fast == SatStatus::Sat) {
                ladder = ExactVerdict::Sat;
            } else if (fast == SatStatus::Unsat &&
                       solveAt(graph, model, ii, encoder.soundHorizon(ii),
                               budget, &soundConflicts) ==
                           SatStatus::Unsat) {
                ladder = ExactVerdict::Unsat;
            }
            ExactOptions options;
            options.conflictBudget = budget;
            const ExactDecision decision =
                exactDecideAtIi(graph, model, ii, options);
            EXPECT_EQ(decision.verdict, ladder)
                << graph.name() << " at II " << ii << ", budget "
                << budget;
            EXPECT_EQ(decision.conflicts,
                      counted + fastConflicts + soundConflicts);
            EXPECT_EQ(decision.proof, ladder == ExactVerdict::Unsat
                                          ? ExactProof::Horizon
                                          : ExactProof::None);
            if (ladder != ExactVerdict::Budget)
                ++answered;
        }
    }
    EXPECT_GT(fellThrough, 0);
    EXPECT_GT(answered, 0);
}

// ------------------------------------------------ relaxation hint

/** What seeds the timed rungs' cluster phases in replayLadder. */
enum class Hint
{
    None,       ///< no seed: every phase false
    Relaxation, ///< the relaxation's partition, as exactDecideAtIi does
    AllOnZero,  ///< wrong on purpose: every node on cluster 0
    Rotated,    ///< wrong on purpose: the partition moved one cluster up
};

/** Outcome of one replayed decision. */
struct Replay
{
    ExactVerdict verdict = ExactVerdict::Budget;
    long conflicts = 0;
    AnnotatedLoop loop;
    Schedule schedule;
};

/**
 * Replays the counts -> fast -> sound decision at @p ii through the
 * public encoder and solver API, one fresh solver per instance under
 * the default budget, seeding each timed rung as @p hint says. A SAT
 * rung's model is decoded into the result.
 */
Replay
replayLadder(const Dfg &graph, const ResourceModel &model, int ii,
             Hint hint)
{
    Replay out;
    ExactEncoder encoder(graph, model);
    SatBudget budget;
    budget.maxConflicts = ExactOptions{}.conflictBudget;
    std::vector<ClusterId> seed;
    {
        SatSolver solver;
        EXPECT_TRUE(encoder.encode(ii, ExactEncoder::timeFree, solver));
        const SatStatus status = solver.solve(budget);
        out.conflicts += solver.stats().conflicts;
        if (status == SatStatus::Unsat) {
            out.verdict = ExactVerdict::Unsat;
            return out;
        }
        if (status == SatStatus::Sat && hint != Hint::None)
            seed = encoder.partition(solver);
    }
    const int clusters = model.machine().numClusters();
    for (ClusterId &c : seed) {
        if (hint == Hint::AllOnZero)
            c = 0;
        else if (hint == Hint::Rotated)
            c = (c + 1) % clusters;
    }
    const int fast = encoder.fastHorizon(ii);
    const int sound = encoder.soundHorizon(ii);
    for (const int horizon : {fast, sound}) {
        SatSolver solver;
        EXPECT_TRUE(encoder.encode(ii, horizon, solver));
        if (!seed.empty())
            encoder.hintPartition(solver, seed);
        const SatStatus status = solver.solve(budget);
        out.conflicts += solver.stats().conflicts;
        if (status == SatStatus::Sat) {
            encoder.decode(solver, out.loop, out.schedule);
            out.verdict = ExactVerdict::Sat;
            return out;
        }
        if (status == SatStatus::Unknown)
            return out;
        if (horizon >= sound)
            break;
    }
    out.verdict = ExactVerdict::Unsat;
    return out;
}

/** Re-checks a SAT decode with the judges outside the encoder. */
void
expectVerified(const AnnotatedLoop &loop, const Schedule &schedule,
               const ResourceModel &model, const std::string &where)
{
    std::string why;
    EXPECT_TRUE(loop.validate(model.machine(), &why)) << where << ": " << why;
    EXPECT_TRUE(verifySchedule(loop, model, schedule, &why))
        << where << ": " << why;
}

TEST(RelaxationHint, VerdictsMatchTheUnhintedLadder)
{
    // The hint is a phase, so every race probe of the suite must get
    // the verdict a ladder that never saw the relaxation's model gets.
    // The hinted replay must also be exactly the production decision,
    // down to its conflict count, or the comparison proves nothing.
    for (const RaceMachine &race : raceMachines()) {
        SCOPED_TRACE(race.machine.name);
        const ResourceModel model(race.machine);
        int sat = 0;
        const int probes = forEachRaceProbe(
            race.machine, [&](const Dfg &graph, int ii) {
                const ExactDecision decision =
                    exactDecideAtIi(graph, model, ii, ExactOptions{});
                const Replay hinted =
                    replayLadder(graph, model, ii, Hint::Relaxation);
                const Replay blind =
                    replayLadder(graph, model, ii, Hint::None);
                EXPECT_EQ(decision.verdict, blind.verdict)
                    << graph.name() << " at II " << ii;
                EXPECT_EQ(decision.verdict, hinted.verdict);
                EXPECT_EQ(decision.conflicts, hinted.conflicts)
                    << graph.name() << " at II " << ii;
                sat += decision.verdict == ExactVerdict::Sat;
                return decision.verdict;
            });
        EXPECT_EQ(probes, race.raceProbes);
        EXPECT_EQ(sat, race.raceProbes - race.raceUnsat);
    }
}

TEST(RelaxationHint, WrongHintsKeepTheVerdicts)
{
    // A deliberately wrong partition -- everything on one cluster, or
    // every node moved to the next cluster -- may cost conflicts but
    // must not change a single verdict.
    for (const RaceMachine &race : raceMachines()) {
        SCOPED_TRACE(race.machine.name);
        const ResourceModel model(race.machine);
        const int probes = forEachRaceProbe(
            race.machine, [&](const Dfg &graph, int ii) {
                const ExactVerdict blind =
                    replayLadder(graph, model, ii, Hint::None).verdict;
                for (const Hint wrong : {Hint::AllOnZero, Hint::Rotated}) {
                    EXPECT_EQ(replayLadder(graph, model, ii, wrong).verdict,
                              blind)
                        << graph.name() << " at II " << ii << ", hint "
                        << static_cast<int>(wrong);
                }
                return blind;
            });
        EXPECT_EQ(probes, race.raceProbes);
    }
}

TEST(RelaxationHint, SatDecodesPassTheVerifier)
{
    // Whatever the seed, a SAT model decodes into an annotated loop and
    // schedule that the independent judges accept.
    for (const RaceMachine &race : raceMachines()) {
        SCOPED_TRACE(race.machine.name);
        const ResourceModel model(race.machine);
        int decoded = 0;
        forEachRaceProbe(race.machine, [&](const Dfg &graph, int ii) {
            const ExactDecision decision =
                exactDecideAtIi(graph, model, ii, ExactOptions{});
            const std::string where =
                graph.name() + " at II " + std::to_string(ii);
            if (decision.verdict == ExactVerdict::Sat) {
                ++decoded;
                expectVerified(decision.loop, decision.schedule, model,
                               where);
            }
            for (const Hint wrong : {Hint::AllOnZero, Hint::Rotated}) {
                const Replay replay = replayLadder(graph, model, ii, wrong);
                if (replay.verdict == ExactVerdict::Sat) {
                    ++decoded;
                    expectVerified(replay.loop, replay.schedule, model,
                                   where);
                }
            }
            return decision.verdict;
        });
        EXPECT_EQ(decoded, 3 * (race.raceProbes - race.raceUnsat));
    }
}

// ------------------------------------------------------------- driver

TEST(ExactBackend, NamesRoundTrip)
{
    for (const CompileBackend backend :
         {CompileBackend::Heuristic, CompileBackend::Race}) {
        CompileBackend parsed = CompileBackend::Heuristic;
        ASSERT_TRUE(
            parseCompileBackend(compileBackendName(backend), parsed));
        EXPECT_EQ(parsed, backend);
    }
    CompileBackend parsed;
    EXPECT_FALSE(parseCompileBackend("sat", parsed));
    EXPECT_FALSE(parseCompileBackend("exact", parsed));
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

TEST(ExactBackend, UnsupportedLoopTakesTheHeuristicAnswer)
{
    // A loop whose heuristic II sits above MII, so race has a lower II
    // to probe, but past the node limit: the arm cannot encode it and
    // must leave the heuristic answer standing without calling it
    // optimal.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::vector<CompileResult> &compiles =
        heuristicCompiles(machine);
    const auto above = std::find_if(
        compiles.begin(), compiles.end(), [](const CompileResult &r) {
            return r.success && r.degraded == DegradeLevel::None &&
                   r.ii > r.mii.mii;
        });
    ASSERT_NE(above, compiles.end());
    const CompileResult &heuristic = *above;
    const Dfg &graph = fullSuite()[above - compiles.begin()];

    CompileOptions race;
    race.backend = CompileBackend::Race;
    race.exact.nodeLimit = graph.numNodes() - 1;
    const CompileResult result = compileClustered(graph, machine, race);
    ASSERT_TRUE(result.success) << result.failureDetail;
    EXPECT_EQ(result.degraded, DegradeLevel::None);
    EXPECT_EQ(result.exact.outcome, ExactOutcome::Unsupported);
    EXPECT_EQ(result.exact.detail, "node_limit");
    EXPECT_FALSE(result.exact.tightened);
    EXPECT_FALSE(result.exact.certified);
    EXPECT_EQ(result.ii, heuristic.ii);
    EXPECT_EQ(result.schedule.startCycle, heuristic.schedule.startCycle);
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
