#include "graph/builder.hh"

#include <numeric>
#include <span>

#include "support/logging.hh"

namespace cams
{

DfgBuilder::DfgBuilder(std::string loop_name)
{
    setName(std::move(loop_name));
}

void
DfgBuilder::setName(std::string name)
{
    graph_.name_ = std::move(name);
}

void
DfgBuilder::reserve(int nodes, int edges)
{
    graph_.nodes_.reserve(nodes);
    graph_.edges_.reserve(edges);
}

NodeId
DfgBuilder::addNode(Opcode op, int latency, std::string name)
{
    DfgNode node;
    node.id = numNodes();
    node.op = op;
    node.latency = latency < 0 ? opcodeLatency(op) : latency;
    node.name = std::move(name);
    if (node.name.empty())
        node.name = opcodeName(op) + std::to_string(node.id);
    graph_.nodes_.push_back(std::move(node));
    return graph_.nodes_.back().id;
}

EdgeId
DfgBuilder::addEdge(NodeId src, NodeId dst, int latency, int distance)
{
    cams_assert(src >= 0 && src < numNodes(), "bad edge src ", src);
    cams_assert(dst >= 0 && dst < numNodes(), "bad edge dst ", dst);
    cams_assert(distance >= 0, "negative edge distance");
    DfgEdge edge;
    edge.id = graph_.numEdges();
    edge.src = src;
    edge.dst = dst;
    edge.latency = latency < 0 ? graph_.nodes_[src].latency : latency;
    edge.distance = distance;
    graph_.edges_.push_back(edge);
    return edge.id;
}

DfgBuilder &
DfgBuilder::op(const std::string &name, Opcode opcode, int latency)
{
    cams_assert(!names_.count(name), "duplicate node name '", name, "'");
    names_[name] = addNode(opcode, latency, name);
    return *this;
}

DfgBuilder &
DfgBuilder::flow(const std::string &src, const std::string &dst,
                 int latency)
{
    addEdge(id(src), id(dst), latency, 0);
    return *this;
}

DfgBuilder &
DfgBuilder::carried(const std::string &src, const std::string &dst,
                    int distance, int latency)
{
    cams_assert(distance >= 1, "carried edge needs distance >= 1");
    addEdge(id(src), id(dst), latency, distance);
    return *this;
}

DfgBuilder &
DfgBuilder::chain(const std::vector<std::string> &names)
{
    for (size_t i = 0; i + 1 < names.size(); ++i)
        flow(names[i], names[i + 1]);
    return *this;
}

NodeId
DfgBuilder::id(const std::string &name) const
{
    auto it = names_.find(name);
    if (it == names_.end())
        cams_fatal("unknown node name '", name, "'");
    return it->second;
}

Dfg
DfgBuilder::build()
{
    const int n = numNodes();
    const std::vector<DfgEdge> &edges = graph_.edges_;
    auto src = [&](EdgeId e) { return edges[e].src; };
    auto dst = [&](EdgeId e) { return edges[e].dst; };

    // Stable counting sort of a list of edge ids into one row per
    // node, keyed by an endpoint: each row keeps the list's order.
    auto bucket = [n](std::span<const EdgeId> list, auto key) {
        Dfg::Rows rows;
        rows.off.assign(n + 1, 0);
        for (EdgeId e : list)
            ++rows.off[key(e) + 1];
        std::partial_sum(rows.off.begin(), rows.off.end(),
                         rows.off.begin());
        std::vector<int> next(rows.off.begin(), rows.off.end() - 1);
        rows.ids.resize(list.size());
        for (EdgeId e : list)
            rows.ids[next[key(e)]++] = e;
        return rows;
    };
    // Replaces every edge id by its far endpoint and drops repeats
    // within a row, in place; rows sorted by that endpoint come out
    // distinct and ascending.
    auto distinct = [n](Dfg::Rows rows, auto far) {
        int kept = 0;
        int begin = 0;
        for (NodeId v = 0; v < n; ++v) {
            const int end = rows.off[v + 1];
            rows.off[v] = kept;
            for (int k = begin; k < end; ++k) {
                const NodeId w = far(rows.ids[k]);
                if (kept == rows.off[v] || rows.ids[kept - 1] != w)
                    rows.ids[kept++] = w;
            }
            begin = end;
        }
        rows.off[n] = kept;
        rows.ids.resize(kept);
        return rows;
    };

    std::vector<EdgeId> byId(edges.size());
    std::iota(byId.begin(), byId.end(), 0);
    graph_.out_ = bucket(byId, src);
    graph_.in_ = bucket(byId, dst);
    // The out rows, read node by node, list the edges by ascending
    // source; bucketing that list by target sorts every in-row by
    // source, so dropping repeats leaves the distinct predecessors in
    // ascending order. Successors mirror it through the in rows.
    graph_.preds_ = distinct(bucket(graph_.out_.ids, dst), src);
    graph_.succs_ = distinct(bucket(graph_.in_.ids, src), dst);
    return std::move(graph_);
}

} // namespace cams
