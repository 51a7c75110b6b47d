#include "order/swing_order.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

namespace
{

/**
 * True when every distance-0 predecessor of v inside the same set is
 * already ordered (top-down frontier condition). Loop-carried edges
 * are exempt: they close recurrences, and their scheduling windows
 * scale with II.
 */
bool
topDownReady(const Dfg &graph, NodeId v, const std::vector<bool> &pending)
{
    for (EdgeId e : graph.inEdges(v)) {
        const DfgEdge &edge = graph.edge(e);
        if (edge.distance == 0 && edge.src != v && pending[edge.src])
            return false;
    }
    return true;
}

/** Bottom-up frontier condition: no pending distance-0 successor. */
bool
bottomUpReady(const Dfg &graph, NodeId v, const std::vector<bool> &pending)
{
    for (EdgeId e : graph.outEdges(v)) {
        const DfgEdge &edge = graph.edge(e);
        if (edge.distance == 0 && edge.dst != v && pending[edge.dst])
            return false;
    }
    return true;
}

} // namespace

std::vector<NodeId>
swingOrder(const Dfg &graph, const NodeSets &sets,
           const TimeAnalysis &timing, const Adjacency *adjacency)
{
    const int n = graph.numNodes();
    std::vector<bool> ordered(n, false);
    std::vector<NodeId> result;
    result.reserve(n);

    // depth = asap (distance from sources); height = distance to sinks.
    const auto &depth = timing.asap;
    const auto &height = timing.height;

    auto hasOrderedNeighbor = [&](NodeId v, bool preds) {
        const auto neighbors =
            preds ? graph.predecessors(v) : graph.successors(v);
        for (NodeId other : neighbors) {
            if (other != v && ordered[other])
                return true;
        }
        return false;
    };

    // With an adjacency the frontier and ordered-neighbor predicates
    // are tracked as running state: counters of pending distance-0
    // neighbors and sticky has-ordered-neighbor flags, updated in
    // O(deg) when a node is ordered, instead of rescanning edges per
    // candidate per round. The predicates take identical values, so
    // every pick -- and thus the order -- is unchanged.
    std::vector<int> pend_pred0;
    std::vector<int> pend_succ0;
    std::vector<char> nbr_pred_ordered;
    std::vector<char> nbr_succ_ordered;
    if (adjacency) {
        pend_pred0.assign(n, 0);
        pend_succ0.assign(n, 0);
        nbr_pred_ordered.assign(n, 0);
        nbr_succ_ordered.assign(n, 0);
    }

    // pending is self-cleaning (every member is picked and cleared
    // before the set finishes), so one allocation serves all sets.
    std::vector<bool> pending(n, false);
    std::vector<NodeId> members;
    for (const auto &set : sets.sets) {
        members.clear();
        for (NodeId v : set) {
            if (!ordered[v]) {
                pending[v] = true;
                members.push_back(v);
            }
        }

        if (adjacency) {
            for (NodeId v : members) {
                int pred0 = 0;
                for (const AdjEdge &edge : adjacency->inEdges(v)) {
                    if (edge.distance == 0 && edge.node != v &&
                        pending[edge.node]) {
                        ++pred0;
                    }
                }
                pend_pred0[v] = pred0;
                int succ0 = 0;
                for (const AdjEdge &edge : adjacency->outEdges(v)) {
                    if (edge.distance == 0 && edge.node != v &&
                        pending[edge.node]) {
                        ++succ0;
                    }
                }
                pend_succ0[v] = succ0;
                char has_pred = 0;
                for (NodeId other : adjacency->preds(v)) {
                    if (other != v && ordered[other]) {
                        has_pred = 1;
                        break;
                    }
                }
                nbr_pred_ordered[v] = has_pred;
                char has_succ = 0;
                for (NodeId other : adjacency->succs(v)) {
                    if (other != v && ordered[other]) {
                        has_succ = 1;
                        break;
                    }
                }
                nbr_succ_ordered[v] = has_succ;
            }
        }

        size_t left = members.size();
        while (left > 0) {
            // Candidates per direction. The frontier conditions keep
            // the key invariant: a node is ordered only when all of
            // its same-set distance-0 predecessors (top-down) or
            // successors (bottom-up) are already ordered, so the
            // scheduler never faces a fixed closed window.
            NodeId best_td = invalidNode;
            NodeId best_bu = invalidNode;
            NodeId frontier_td = invalidNode;
            NodeId frontier_bu = invalidNode;

            auto betterTopDown = [&](NodeId a, NodeId b) {
                // Deeper first; tie: more critical; tie: smaller id.
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

            for (NodeId v : members) {
                if (!pending[v])
                    continue;
                const bool td_ready =
                    adjacency ? pend_pred0[v] == 0
                              : topDownReady(graph, v, pending);
                if (td_ready) {
                    if (frontier_td == invalidNode ||
                        betterTopDown(v, frontier_td)) {
                        frontier_td = v;
                    }
                    const bool nbr = adjacency
                                         ? nbr_pred_ordered[v] != 0
                                         : hasOrderedNeighbor(v, true);
                    if (nbr && (best_td == invalidNode ||
                                betterTopDown(v, best_td))) {
                        best_td = v;
                    }
                }
                const bool bu_ready =
                    adjacency ? pend_succ0[v] == 0
                              : bottomUpReady(graph, v, pending);
                if (bu_ready) {
                    if (frontier_bu == invalidNode ||
                        betterBottomUp(v, frontier_bu)) {
                        frontier_bu = v;
                    }
                    const bool nbr = adjacency
                                         ? nbr_succ_ordered[v] != 0
                                         : hasOrderedNeighbor(v, false);
                    if (nbr && (best_bu == invalidNode ||
                                betterBottomUp(v, best_bu))) {
                        best_bu = v;
                    }
                }
            }

            // Preference order follows the SMS ordering: first the
            // unordered predecessors of the ordered region (bottom-up
            // extension), then its unordered successors (top-down),
            // then a fresh top-down start from the most critical
            // source -- producers before consumers, which is what
            // makes the paper's predicted-copy reservation (PCR)
            // effective -- and finally a bottom-up start. The last
            // arm only triggers if a same-set distance-0 cycle
            // defeated both frontiers, which a well-formed loop
            // cannot have.
            NodeId pick = invalidNode;
            if (best_bu != invalidNode) {
                pick = best_bu;
            } else if (best_td != invalidNode) {
                pick = best_td;
            } else if (frontier_td != invalidNode) {
                pick = frontier_td;
            } else if (frontier_bu != invalidNode) {
                pick = frontier_bu;
            } else {
                for (NodeId v : members) {
                    if (pending[v] &&
                        (pick == invalidNode || betterBottomUp(v, pick))) {
                        pick = v;
                    }
                }
            }

            cams_assert(pick != invalidNode, "no orderable node");
            pending[pick] = false;
            ordered[pick] = true;
            result.push_back(pick);
            --left;
            if (adjacency) {
                // Compact the live list so later rounds skip nothing:
                // each candidate scan is an argmax under a strict
                // total order, so scan order cannot change the pick.
                auto dead =
                    std::find(members.begin(), members.end(), pick);
                *dead = members.back();
                members.pop_back();
                // The pick left the pending set: its distance-0 edges
                // no longer block neighbors, and it is now an ordered
                // neighbor of everything adjacent to it.
                for (const AdjEdge &edge : adjacency->outEdges(pick)) {
                    if (edge.distance == 0 && edge.node != pick &&
                        pending[edge.node]) {
                        --pend_pred0[edge.node];
                    }
                }
                for (const AdjEdge &edge : adjacency->inEdges(pick)) {
                    if (edge.distance == 0 && edge.node != pick &&
                        pending[edge.node]) {
                        --pend_succ0[edge.node];
                    }
                }
                for (NodeId succ : adjacency->succs(pick)) {
                    if (succ != pick)
                        nbr_pred_ordered[succ] = 1;
                }
                for (NodeId pred : adjacency->preds(pick)) {
                    if (pred != pick)
                        nbr_succ_ordered[pred] = 1;
                }
            }
        }
    }

    cams_assert(static_cast<int>(result.size()) == n,
                "swing order missed nodes");
    return result;
}

std::vector<NodeId>
swingOrder(const Dfg &graph, int ii)
{
    const SccInfo sccs = findSccs(graph);
    const NodeSets sets = buildPrioritySets(graph, sccs);
    const TimeAnalysis timing = analyzeTiming(graph, ii);
    return swingOrder(graph, sets, timing);
}

} // namespace cams
