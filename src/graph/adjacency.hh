/**
 * @file
 * Packed adjacency view of a Dfg.
 *
 * Dfg::predecessors / Dfg::successors build a fresh sorted-unique
 * vector on every call, which the assigner's candidate evaluation
 * invokes for every (node, cluster) probe -- millions of short-lived
 * allocations per compile. An Adjacency materializes both neighbor
 * relations once into CSR arrays so hot paths can read them as spans.
 *
 * Neighbor lists are byte-identical to the Dfg queries (same sort,
 * same dedup), so a caller switching between the two sees the same
 * iteration order (tests/context_test.cc compares the two).
 */

#ifndef CAMS_GRAPH_ADJACENCY_HH
#define CAMS_GRAPH_ADJACENCY_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"

namespace cams
{

/** One dependence edge as seen from one endpoint: the other node plus
 *  the payload the schedulers read (latency, iteration distance). */
struct AdjEdge
{
    NodeId node;
    int latency;
    int distance;
};

/** CSR snapshot of a graph's neighbor relations (not auto-updated:
 *  rebuild after mutating the graph). */
class Adjacency
{
  public:
    Adjacency() = default;

    /** Builds both relations; O(V + E log E). */
    explicit Adjacency(const Dfg &graph);

    /** Distinct sources of in-edges, ascending (= predecessors()). */
    std::span<const NodeId> preds(NodeId node) const
    {
        return {predIds_.data() + predOff_[node],
                predIds_.data() + predOff_[node + 1]};
    }

    /** Distinct targets of out-edges, ascending (= successors()). */
    std::span<const NodeId> succs(NodeId node) const
    {
        return {succIds_.data() + succOff_[node],
                succIds_.data() + succOff_[node + 1]};
    }

    /** In-edges of node (edge.node = source), in Dfg::inEdges order.
     *  One flat record per edge, so scheduling-window scans touch a
     *  single contiguous array instead of chasing edge ids. */
    std::span<const AdjEdge> inEdges(NodeId node) const
    {
        return {in_.data() + inOff_[node],
                in_.data() + inOff_[node + 1]};
    }

    /** Out-edges of node (edge.node = target), Dfg::outEdges order. */
    std::span<const AdjEdge> outEdges(NodeId node) const
    {
        return {out_.data() + outOff_[node],
                out_.data() + outOff_[node + 1]};
    }

    int numNodes() const
    {
        return static_cast<int>(predOff_.size()) - 1;
    }

  private:
    std::vector<int> predOff_;
    std::vector<NodeId> predIds_;
    std::vector<int> succOff_;
    std::vector<NodeId> succIds_;
    std::vector<int> inOff_;
    std::vector<AdjEdge> in_;
    std::vector<int> outOff_;
    std::vector<AdjEdge> out_;
};

} // namespace cams

#endif // CAMS_GRAPH_ADJACENCY_HH
