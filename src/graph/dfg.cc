#include "graph/dfg.hh"

#include "support/logging.hh"

namespace cams
{

const DfgNode &
Dfg::node(NodeId id) const
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return nodes_[id];
}

const DfgEdge &
Dfg::edge(EdgeId id) const
{
    cams_assert(id >= 0 && id < numEdges(), "bad edge id ", id);
    return edges_[id];
}

std::span<const int>
Dfg::row(const Rows &rows, NodeId id) const
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return {rows.ids.data() + rows.off[id],
            rows.ids.data() + rows.off[id + 1]};
}

std::span<const EdgeId>
Dfg::outEdges(NodeId id) const
{
    return row(out_, id);
}

std::span<const EdgeId>
Dfg::inEdges(NodeId id) const
{
    return row(in_, id);
}

std::span<const NodeId>
Dfg::successors(NodeId id) const
{
    return row(succs_, id);
}

std::span<const NodeId>
Dfg::predecessors(NodeId id) const
{
    return row(preds_, id);
}

int
Dfg::totalLatency() const
{
    int total = 0;
    for (const auto &node : nodes_)
        total += node.latency;
    return total;
}

bool
Dfg::wellFormed(std::string *why) const
{
    for (const auto &edge : edges_) {
        if (edge.src < 0 || edge.src >= numNodes() || edge.dst < 0 ||
            edge.dst >= numNodes()) {
            if (why)
                *why = "edge endpoint out of range";
            return false;
        }
        if (edge.distance < 0) {
            if (why)
                *why = "negative distance";
            return false;
        }
        if (edge.latency < 0) {
            if (why)
                *why = "negative latency";
            return false;
        }
    }
    for (const auto &node : nodes_) {
        if (node.latency < 0) {
            if (why)
                *why = "negative node latency";
            return false;
        }
    }
    return true;
}

} // namespace cams
