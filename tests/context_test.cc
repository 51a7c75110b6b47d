/**
 * @file
 * Tests of the per-loop analysis layer: the TimingSolver and the
 * LoopContext against the standalone analyses they cache, and the
 * word-scan MRT against a row-by-row counting table written here,
 * independently of the Mrt class.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "assign/assigner.hh"
#include "graph/analysis.hh"
#include "graph/recmii.hh"
#include "machine/configs.hh"
#include "mrt/mrt.hh"
#include "order/swing_order.hh"
#include "pipeline/context.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "support/random.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

void
expectSameTiming(const TimeAnalysis &a, const TimeAnalysis &b)
{
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.asap, b.asap);
    EXPECT_EQ(a.alap, b.alap);
    EXPECT_EQ(a.mobility, b.mobility);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.criticalPath, b.criticalPath);
}

TEST(TimingSolver, MatchesFromScratchAcrossEscalation)
{
    const std::vector<Dfg> suite = buildSuite(32, 0x5EED0001ULL);
    for (const Dfg &loop : suite) {
        SCOPED_TRACE(loop.name());
        const int start = recMii(loop);
        TimingSolver solver(loop);
        // Walk an escalation upward, then revisit: every answer must
        // equal the from-scratch fixpoint at that II.
        for (int ii = start; ii < start + 6; ++ii)
            expectSameTiming(solver.solve(ii), analyzeTiming(loop, ii));
        expectSameTiming(solver.solve(start),
                         analyzeTiming(loop, start));
    }
}

TEST(TimingSolver, RepeatedIiIsACacheHit)
{
    const std::vector<Dfg> suite = buildSuite(4, 0x5EED0002ULL);
    const Dfg &loop = suite.front();
    const int start = recMii(loop);
    TimingSolver solver(loop);
    solver.solve(start);
    EXPECT_FALSE(solver.lastWasHit());
    solver.solve(start);
    EXPECT_TRUE(solver.lastWasHit());
    solver.solve(start + 1);
    EXPECT_FALSE(solver.lastWasHit());
}

TEST(LoopContext, MatchesDirectAnalyses)
{
    const std::vector<Dfg> suite = buildSuite(24, 0x5EED0003ULL);
    for (const Dfg &loop : suite) {
        SCOPED_TRACE(loop.name());
        LoopContext ctx(loop);
        const int direct = recMii(loop);
        EXPECT_EQ(ctx.recMii(), direct);
        for (int ii = std::max(1, direct - 2); ii < direct + 3; ++ii)
            EXPECT_EQ(ctx.schedulableAt(ii), direct <= ii);
        // The swing order the context builds over its packed
        // adjacency equals the standalone one at each II.
        for (int ii = direct; ii < direct + 3; ++ii) {
            expectSameTiming(ctx.timing(ii), analyzeTiming(loop, ii));
            EXPECT_EQ(ctx.swingOrder(ii), swingOrder(loop, ii));
        }
        // The packed adjacency lists what the Dfg queries list, in
        // the same order, edge payloads included.
        const Adjacency &adj = ctx.adjacency();
        for (NodeId v = 0; v < loop.numNodes(); ++v) {
            const auto preds = adj.preds(v);
            const auto succs = adj.succs(v);
            EXPECT_EQ(std::vector<NodeId>(preds.begin(), preds.end()),
                      loop.predecessors(v));
            EXPECT_EQ(std::vector<NodeId>(succs.begin(), succs.end()),
                      loop.successors(v));
            const auto in = adj.inEdges(v);
            ASSERT_EQ(in.size(), loop.inEdges(v).size());
            for (size_t k = 0; k < in.size(); ++k) {
                const DfgEdge &edge = loop.edge(loop.inEdges(v)[k]);
                EXPECT_EQ(in[k].node, edge.src);
                EXPECT_EQ(in[k].latency, edge.latency);
                EXPECT_EQ(in[k].distance, edge.distance);
            }
            const auto out = adj.outEdges(v);
            ASSERT_EQ(out.size(), loop.outEdges(v).size());
            for (size_t k = 0; k < out.size(); ++k) {
                const DfgEdge &edge = loop.edge(loop.outEdges(v)[k]);
                EXPECT_EQ(out[k].node, edge.dst);
                EXPECT_EQ(out[k].latency, edge.latency);
                EXPECT_EQ(out[k].distance, edge.distance);
            }
        }
    }
}

TEST(LoopContext, FeasibilityBoundsCacheWithoutRecMii)
{
    const std::vector<Dfg> suite = buildSuite(4, 0x5EED0004ULL);
    const Dfg &loop = suite.front();
    const int direct = recMii(loop);
    LoopContext ctx(loop);
    // Never ask for recMii(): the monotone bounds alone must answer
    // repeat queries from cache.
    ASSERT_TRUE(ctx.schedulableAt(direct));
    const long misses = ctx.misses();
    EXPECT_TRUE(ctx.schedulableAt(direct));
    EXPECT_TRUE(ctx.schedulableAt(direct + 5));
    EXPECT_EQ(ctx.misses(), misses);
    EXPECT_GT(ctx.hits(), 0);
}

/**
 * The assigner alone, every Figure 12/13 variant on every kind of
 * interconnect, at each loop's MII and the two IIs above it. Debug
 * builds cross-check every §4.2 query against a rescan of the graph
 * and the MRT; a mismatch surfaces here as an invariant failure that
 * carries the check's message.
 */
TEST(AssignCounters, AgreeWithRescansOnEveryMachine)
{
    const std::vector<Dfg> suite = buildSuite(24, 0x5EED0006ULL);
    for (const MachineDesc &machine :
         {busedGpMachine(2, 2, 1), busedGpMachine(4, 4, 2),
          busedFsMachine(2, 2, 1), gridMachine()}) {
        const ResourceModel model(machine);
        for (const bool iterative : {true, false}) {
            for (const bool full : {true, false}) {
                AssignOptions options;
                options.iterative = iterative;
                options.fullHeuristic = full;
                const ClusterAssigner assigner(model, options);
                for (const Dfg &loop : suite) {
                    LoopContext ctx(loop);
                    const int mii =
                        computeMii(loop, machine.unifiedEquivalent(),
                                   ctx.recMii())
                            .mii;
                    for (int ii = mii; ii < mii + 3; ++ii) {
                        const AssignResult result =
                            assigner.run(loop, ii, &ctx);
                        EXPECT_EQ(result.invariantFailures, 0)
                            << machine.name << " " << loop.name()
                            << " II " << ii << ": " << result.detail;
                    }
                }
            }
        }
    }
}

/**
 * The MRT's reference semantics, written out row by row: a slot count
 * per (pool, row) against the pool's capacity. Shares nothing with
 * Mrt but the ResourceModel's capacities.
 */
class CountingTable
{
  public:
    CountingTable(const ResourceModel &model, int ii)
        : model_(model), ii_(ii),
          used_(static_cast<size_t>(model.numPools()) * ii, 0)
    {
    }

    bool
    fits(const std::vector<PoolId> &request, int row) const
    {
        for (PoolId pool : request) {
            const long need =
                std::count(request.begin(), request.end(), pool);
            if (used(pool, row) + need > model_.capacity(pool))
                return false;
        }
        return true;
    }

    /** Rows skipped before the first fit along the cyclic walk. */
    int
    scanRows(const std::vector<PoolId> &request, int row, int count,
             int step) const
    {
        for (int skipped = 0; skipped < count; ++skipped) {
            if (fits(request, row))
                return skipped;
            row = (row + step + ii_) % ii_;
        }
        return -1;
    }

    void
    take(const std::vector<PoolId> &request, int row, int delta)
    {
        for (PoolId pool : request)
            used_[static_cast<size_t>(pool) * ii_ + row] += delta;
    }

  private:
    int
    used(PoolId pool, int row) const
    {
        return used_[static_cast<size_t>(pool) * ii_ + row];
    }

    const ResourceModel &model_;
    int ii_;
    std::vector<int> used_;
};

/** One randomized Mrt trajectory, mirrored in a CountingTable; every
 *  query along the way must agree. */
void
runMirroredMrtTrajectory(const MachineDesc &machine, uint64_t seed,
                         int ii)
{
    const ResourceModel model(machine);
    Mrt word(model, ii);
    CountingTable reference(model, ii);
    Rng rng(seed);

    // A menu of requests: single pools plus a few multi-pool combos
    // (with duplicates when the machine allows, via repeated picks).
    std::vector<std::vector<PoolId>> menu;
    for (PoolId pool = 0; pool < model.numPools(); ++pool)
        menu.push_back({pool});
    for (int i = 0; i < 6; ++i) {
        std::vector<PoolId> combo;
        const int size = rng.uniformInt(2, 4);
        for (int j = 0; j < size; ++j) {
            combo.push_back(static_cast<PoolId>(
                rng.uniformInt(0, model.numPools() - 1)));
        }
        menu.push_back(std::move(combo));
    }

    std::vector<Reservation> held;
    for (int step = 0; step < 400; ++step) {
        const std::vector<PoolId> &request =
            menu[rng.uniformInt(0, static_cast<int>(menu.size()) - 1)];
        const int row = rng.uniformInt(0, ii - 1);
        ASSERT_EQ(word.canReserveAt(request, row),
                  reference.fits(request, row))
            << "step " << step << " row " << row;
        ASSERT_EQ(word.findRow(request),
                  reference.scanRows(request, 0, ii, 1))
            << "step " << step;
        const int count = rng.uniformInt(1, ii);
        const int step_dir = rng.chance(0.5) ? 1 : -1;
        ASSERT_EQ(word.scanRows(request, row, count, step_dir),
                  reference.scanRows(request, row, count, step_dir))
            << "step " << step << " row " << row << " count " << count
            << " dir " << step_dir;

        if (rng.chance(0.65) && word.canReserveAt(request, row)) {
            held.push_back(word.reserveAt(request, row));
            reference.take(request, row, 1);
        } else if (!held.empty() && rng.chance(0.5)) {
            const int victim =
                rng.uniformInt(0, static_cast<int>(held.size()) - 1);
            word.release(held[victim]);
            reference.take(held[victim].pools, held[victim].row, -1);
            held.erase(held.begin() + victim);
        }
    }
    EXPECT_GT(word.wordScans(), 0);
}

TEST(MrtWordScan, AgreesWithReferenceUnderRandomTraffic)
{
    runMirroredMrtTrajectory(busedGpMachine(2, 2, 1), 0x11AA22BBULL, 7);
    runMirroredMrtTrajectory(busedFsMachine(2, 2, 1), 0x33CC44DDULL,
                             13);
    runMirroredMrtTrajectory(gridMachine(), 0x55EE66FFULL, 64);
    // An II past one occupancy word exercises the multi-word hop.
    runMirroredMrtTrajectory(busedGpMachine(4, 2, 2), 0x7788AA99ULL,
                             131);
}

TEST(MrtWordScan, ResetReusesTheTable)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 5);
    const std::vector<PoolId> request = {
        model.fuPool(0, FuClass::Integer)};
    for (int row = 0; row < 5; ++row)
        ASSERT_TRUE(mrt.canReserveAt(request, row));
    mrt.reserveAt(request, 3);
    mrt.reset(8);
    for (int row = 0; row < 8; ++row)
        EXPECT_TRUE(mrt.canReserveAt(request, row));
    EXPECT_EQ(mrt.scanRows(request, 5, 8, 1), 0);
}

TEST(CompileResult, IncrementalModeReportsCacheCounters)
{
    const std::vector<Dfg> suite = buildSuite(6, 0x5EED0005ULL);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    const CompileResult cached =
        compileClustered(suite.front(), machine, options);
    ASSERT_TRUE(cached.success);
    EXPECT_GT(cached.ctxMisses, 0);
    EXPECT_GT(cached.mrtWordScans, 0);
}

} // namespace
} // namespace cams
