#include "order/swing_order.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

std::vector<NodeId>
swingOrder(const Dfg &graph, const NodeSets &sets,
           const TimeAnalysis &timing)
{
    const int n = graph.numNodes();
    std::vector<bool> ordered(n, false);
    std::vector<NodeId> result;
    result.reserve(n);

    // depth = asap (distance from sources); height = distance to sinks.
    const auto &depth = timing.asap;
    const auto &height = timing.height;

    // The frontier and ordered-neighbor predicates are running state,
    // updated in O(deg) when a node is ordered instead of rescanned
    // per candidate per round:
    //  - pend_pred0[v] / pend_succ0[v]: pending same-set neighbors
    //    over distance-0 in-/out-edges. A node is top-down (bottom-up)
    //    ready at zero. Loop-carried edges are exempt: they close
    //    recurrences, and their scheduling windows scale with II.
    //  - nbr_pred_ordered[v] / nbr_succ_ordered[v]: some distinct
    //    predecessor (successor) other than v itself is ordered.
    std::vector<int> pend_pred0(n, 0);
    std::vector<int> pend_succ0(n, 0);
    std::vector<char> nbr_pred_ordered(n, 0);
    std::vector<char> nbr_succ_ordered(n, 0);
    auto anyOrdered = [&](NodeId v, std::span<const NodeId> neighbors) {
        for (NodeId other : neighbors) {
            if (other != v && ordered[other])
                return true;
        }
        return false;
    };

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

        for (NodeId v : members) {
            int pred0 = 0;
            for (EdgeId e : graph.inEdges(v)) {
                const DfgEdge &edge = graph.edge(e);
                if (edge.distance == 0 && edge.src != v &&
                    pending[edge.src]) {
                    ++pred0;
                }
            }
            pend_pred0[v] = pred0;
            int succ0 = 0;
            for (EdgeId e : graph.outEdges(v)) {
                const DfgEdge &edge = graph.edge(e);
                if (edge.distance == 0 && edge.dst != v &&
                    pending[edge.dst]) {
                    ++succ0;
                }
            }
            pend_succ0[v] = succ0;
            nbr_pred_ordered[v] = anyOrdered(v, graph.predecessors(v));
            nbr_succ_ordered[v] = anyOrdered(v, graph.successors(v));
        }

        while (!members.empty()) {
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
                if (pend_pred0[v] == 0) {
                    if (frontier_td == invalidNode ||
                        betterTopDown(v, frontier_td)) {
                        frontier_td = v;
                    }
                    if (nbr_pred_ordered[v] &&
                        (best_td == invalidNode ||
                         betterTopDown(v, best_td))) {
                        best_td = v;
                    }
                }
                if (pend_succ0[v] == 0) {
                    if (frontier_bu == invalidNode ||
                        betterBottomUp(v, frontier_bu)) {
                        frontier_bu = v;
                    }
                    if (nbr_succ_ordered[v] &&
                        (best_bu == invalidNode ||
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
                    if (pick == invalidNode || betterBottomUp(v, pick))
                        pick = v;
                }
            }

            cams_assert(pick != invalidNode, "no orderable node");
            pending[pick] = false;
            ordered[pick] = true;
            result.push_back(pick);
            // Compact the live list so later rounds skip nothing: each
            // candidate scan is an argmax under a strict total order,
            // so scan order cannot change the pick.
            auto dead = std::find(members.begin(), members.end(), pick);
            *dead = members.back();
            members.pop_back();
            // The pick left the pending set: its distance-0 edges no
            // longer block neighbors, and it is now an ordered
            // neighbor of everything adjacent to it.
            for (EdgeId e : graph.outEdges(pick)) {
                const DfgEdge &edge = graph.edge(e);
                if (edge.distance == 0 && edge.dst != pick &&
                    pending[edge.dst]) {
                    --pend_pred0[edge.dst];
                }
            }
            for (EdgeId e : graph.inEdges(pick)) {
                const DfgEdge &edge = graph.edge(e);
                if (edge.distance == 0 && edge.src != pick &&
                    pending[edge.src]) {
                    --pend_succ0[edge.src];
                }
            }
            for (NodeId succ : graph.successors(pick)) {
                if (succ != pick)
                    nbr_pred_ordered[succ] = 1;
            }
            for (NodeId pred : graph.predecessors(pick)) {
                if (pred != pick)
                    nbr_succ_ordered[pred] = 1;
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
