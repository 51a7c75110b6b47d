/**
 * @file
 * Unit tests for priority-set grouping and the swing node order,
 * including a rescan reference the production order is checked
 * against on suite loops.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "machine/configs.hh"
#include "order/scc_sets.hh"
#include "order/swing_order.hh"
#include "pipeline/context.hh"
#include "sched/mii.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

Dfg
twoRecurrences()
{
    // Critical SCC {c1, c2} with RecMII 4 (fmul in the cycle); mild
    // SCC {m1, m2} with RecMII 2; plus free nodes.
    return DfgBuilder("t")
        .op("pre", Opcode::Load)
        .op("c1", Opcode::FpAdd)
        .op("c2", Opcode::FpMult)
        .op("m1", Opcode::IntAlu)
        .op("m2", Opcode::IntAlu)
        .op("post", Opcode::Store)
        .flow("pre", "c1")
        .flow("c1", "c2")
        .carried("c2", "c1", 1)
        .flow("m1", "m2")
        .carried("m2", "m1", 1)
        .flow("c2", "post")
        .build();
}

/**
 * The swing order as a plain rescan: every round re-derives each
 * candidate's frontier and ordered-neighbor predicates by scanning the
 * whole edge list, so it shares no code with swingOrder's running
 * counters or with the Dfg's neighbor rows. Ties and the preference
 * order of the picks are those swing_order.cc documents.
 */
std::vector<NodeId>
referenceSwingOrder(const Dfg &graph, const NodeSets &sets,
                    const TimeAnalysis &timing)
{
    const int n = graph.numNodes();
    std::vector<bool> ordered(n, false);
    std::vector<bool> pending(n, false);
    std::vector<NodeId> result;
    const auto &depth = timing.asap;
    const auto &height = timing.height;

    // No pending distance-0 neighbor on the given side (loop-carried
    // edges and self-loops never block).
    auto ready = [&](NodeId v, bool top_down) {
        for (const DfgEdge &edge : graph.edges()) {
            const NodeId near = top_down ? edge.dst : edge.src;
            const NodeId far = top_down ? edge.src : edge.dst;
            if (near == v && far != v && edge.distance == 0 &&
                pending[far]) {
                return false;
            }
        }
        return true;
    };
    // Some other node already ordered on the given side.
    auto orderedNeighbor = [&](NodeId v, bool preds) {
        for (const DfgEdge &edge : graph.edges()) {
            const NodeId near = preds ? edge.dst : edge.src;
            const NodeId far = preds ? edge.src : edge.dst;
            if (near == v && far != v && ordered[far])
                return true;
        }
        return false;
    };
    auto betterTopDown = [&](NodeId a, NodeId b) {
        if (depth[a] != depth[b])
            return depth[a] > depth[b];
        if (height[a] != height[b])
            return height[a] > height[b];
        return a < b;
    };
    auto betterBottomUp = [&](NodeId a, NodeId b) {
        if (height[a] != height[b])
            return height[a] > height[b];
        if (depth[a] != depth[b])
            return depth[a] > depth[b];
        return a < b;
    };
    auto improve = [](NodeId &best, NodeId v, auto better) {
        if (best == invalidNode || better(v, best))
            best = v;
    };

    for (const auto &set : sets.sets) {
        std::vector<NodeId> members;
        for (NodeId v : set) {
            if (!ordered[v]) {
                pending[v] = true;
                members.push_back(v);
            }
        }
        for (size_t left = members.size(); left > 0; --left) {
            NodeId best_td = invalidNode;
            NodeId best_bu = invalidNode;
            NodeId frontier_td = invalidNode;
            NodeId frontier_bu = invalidNode;
            NodeId any = invalidNode;
            for (NodeId v : members) {
                if (!pending[v])
                    continue;
                improve(any, v, betterBottomUp);
                if (ready(v, true)) {
                    improve(frontier_td, v, betterTopDown);
                    if (orderedNeighbor(v, true))
                        improve(best_td, v, betterTopDown);
                }
                if (ready(v, false)) {
                    improve(frontier_bu, v, betterBottomUp);
                    if (orderedNeighbor(v, false))
                        improve(best_bu, v, betterBottomUp);
                }
            }
            NodeId pick = any;
            if (best_bu != invalidNode)
                pick = best_bu;
            else if (best_td != invalidNode)
                pick = best_td;
            else if (frontier_td != invalidNode)
                pick = frontier_td;
            else if (frontier_bu != invalidNode)
                pick = frontier_bu;
            pending[pick] = false;
            ordered[pick] = true;
            result.push_back(pick);
        }
    }
    return result;
}

TEST(SccSets, MostCriticalFirst)
{
    Dfg graph = twoRecurrences();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 3);
    EXPECT_EQ(sets.recMii[0], 4);
    EXPECT_EQ(sets.recMii[1], 2);
    EXPECT_EQ(sets.recMii[2], 1);
    // First set holds c1 (id 1) and c2 (id 2).
    EXPECT_EQ(sets.sets[0], (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(sets.sets[1], (std::vector<NodeId>{3, 4}));
    EXPECT_EQ(sets.sets[2], (std::vector<NodeId>{0, 5}));
}

TEST(SccSets, SetOfIsConsistent)
{
    Dfg graph = twoRecurrences();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    for (int s = 0; s < sets.numSets(); ++s) {
        for (NodeId v : sets.sets[s])
            EXPECT_EQ(sets.setOf[v], s);
    }
}

TEST(SccSets, AcyclicGraphOneSet)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 1);
    EXPECT_EQ(sets.sets[0].size(), 2u);
    EXPECT_EQ(sets.recMii[0], 1);
}

TEST(SccSets, TieBreakBySize)
{
    // Two SCCs with the same RecMII (2): sizes 3 and 2.
    Dfg graph = DfgBuilder("t")
                    .op("a1", Opcode::IntAlu)
                    .op("a2", Opcode::IntAlu)
                    .op("b1", Opcode::IntAlu)
                    .op("b2", Opcode::IntAlu)
                    .op("b3", Opcode::IntAlu)
                    .flow("a1", "a2")
                    .carried("a2", "a1", 1)
                    .chain({"b1", "b2", "b3"})
                    .carried("b3", "b1", 2) // 3/2 -> 2
                    .build();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 2);
    EXPECT_EQ(sets.sets[0].size(), 3u);
    EXPECT_EQ(sets.sets[1].size(), 2u);
}

TEST(SwingOrder, EveryNodeExactlyOnce)
{
    Dfg graph = twoRecurrences();
    const auto order = swingOrder(graph, 4);
    ASSERT_EQ(order.size(), static_cast<size_t>(graph.numNodes()));
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        EXPECT_EQ(sorted[v], v);
}

TEST(SwingOrder, CriticalSccLeads)
{
    Dfg graph = twoRecurrences();
    const auto order = swingOrder(graph, 4);
    // The two members of the critical SCC come first (in some order).
    std::vector<NodeId> head = {order[0], order[1]};
    std::sort(head.begin(), head.end());
    EXPECT_EQ(head, (std::vector<NodeId>{1, 2}));
}

TEST(SwingOrder, OrderedNeighborFirst)
{
    // On a chain, the swing order should emit each node adjacent to an
    // already ordered neighbor (no jumps that strand a node between
    // two ordered neighbors).
    Dfg graph = DfgBuilder("chain")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::IntAlu)
                    .op("c", Opcode::IntAlu)
                    .op("d", Opcode::Store)
                    .chain({"a", "b", "c", "d"})
                    .build();
    const auto order = swingOrder(graph, 1);
    std::vector<int> position(graph.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = static_cast<int>(i);
    // Each node (after the first) has an adjacent-in-graph node
    // earlier in the order.
    for (size_t i = 1; i < order.size(); ++i) {
        const NodeId v = order[i];
        bool adjacent = false;
        for (NodeId p : graph.predecessors(v)) {
            if (position[p] < position[v])
                adjacent = true;
        }
        for (NodeId s : graph.successors(v)) {
            if (position[s] < position[v])
                adjacent = true;
        }
        EXPECT_TRUE(adjacent) << "node " << v << " stranded";
    }
}

TEST(SwingOrder, PaperExampleOrdering)
{
    // Figure 6 graph: the SCC {B, C, D} must precede A, E, F.
    Dfg graph = DfgBuilder("fig6")
                    .op("A", Opcode::IntAlu)
                    .op("B", Opcode::IntAlu)
                    .op("C", Opcode::IntAlu, 2)
                    .op("D", Opcode::IntAlu)
                    .op("E", Opcode::IntAlu)
                    .op("F", Opcode::IntAlu)
                    .chain({"A", "B", "C", "D", "E", "F"})
                    .carried("D", "B", 1)
                    .build();
    const auto order = swingOrder(graph, 4);
    std::vector<int> position(graph.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = static_cast<int>(i);
    // B=1, C=2, D=3 are the SCC; A=0, E=4, F=5 follow.
    EXPECT_LT(position[1], 3);
    EXPECT_LT(position[2], 3);
    EXPECT_LT(position[3], 3);
    EXPECT_GE(position[0], 3);
    EXPECT_GE(position[4], 3);
    EXPECT_GE(position[5], 3);
}

TEST(SwingOrder, DisconnectedComponents)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Load)
                    .op("c", Opcode::Load)
                    .build();
    const auto order = swingOrder(graph, 1);
    EXPECT_EQ(order.size(), 3u);
}

TEST(SwingOrder, MatchesRescanReferenceOnSuite)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1).unifiedEquivalent();
    for (const Dfg &loop : buildSuite(240)) {
        SCOPED_TRACE(loop.name());
        const NodeSets sets = buildPrioritySets(loop, findSccs(loop));
        const int mii = computeMii(loop, machine).mii;
        LoopContext ctx(loop);
        for (int ii = mii; ii <= mii + 2; ++ii) {
            EXPECT_EQ(ctx.swingOrder(ii),
                      referenceSwingOrder(loop, sets,
                                          analyzeTiming(loop, ii)))
                << "II " << ii;
        }
    }
}

} // namespace
} // namespace cams
