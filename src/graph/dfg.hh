/**
 * @file
 * The loop data-flow graph (DFG).
 *
 * Nodes are loop-body operations; edges are data dependences annotated
 * with a latency (cycles the consumer must wait after the producer
 * issues) and a distance (how many loop iterations the dependence
 * spans; 0 for intra-iteration, >= 1 for loop-carried / recurrence
 * edges).
 *
 * A Dfg is immutable. DfgBuilder (graph/builder.hh) is the only way to
 * make one, and its build() lays out the neighbor index once, as four
 * CSR relations over the edge table: the in- and out-edge ids of each
 * node, in edge-id order, and its distinct predecessor and successor
 * ids, ascending. Every neighbor query returns a span into that index,
 * so the hot paths (the swing order, the §4.2 copy predictions, the
 * SMS/IMS windows) read neighbors without allocating. Since nothing
 * is built lazily, one const Dfg can be read by several compile jobs
 * at once.
 *
 * Cluster assignment never mutates the input graph: it builds a new,
 * annotated graph with copy operations spliced in (see
 * assign/assignment.hh).
 */

#ifndef CAMS_GRAPH_DFG_HH
#define CAMS_GRAPH_DFG_HH

#include <span>
#include <string>
#include <vector>

#include "graph/opcode.hh"

namespace cams
{

/** Index of a node within its Dfg. */
using NodeId = int;

/** Index of an edge within its Dfg. */
using EdgeId = int;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = -1;

/** One operation of the loop body. */
struct DfgNode
{
    NodeId id = invalidNode;
    Opcode op = Opcode::IntAlu;
    /** Result latency in cycles (defaults to opcodeLatency(op)). */
    int latency = 1;
    /** Optional human-readable name for traces and DOT output. */
    std::string name;
};

/** One data dependence. */
struct DfgEdge
{
    EdgeId id = -1;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /**
     * Dependence latency: the consumer may issue no earlier than
     * latency cycles after the producer (modulo II * distance).
     */
    int latency = 1;
    /** Iteration distance; 0 = same iteration. */
    int distance = 0;
};

/** Immutable data-flow graph with a CSR neighbor index. */
class Dfg
{
  public:
    /** The empty graph; DfgBuilder makes every other one. */
    Dfg() = default;

    /** Number of nodes. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** Number of edges. */
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Node accessor (checked). */
    const DfgNode &node(NodeId id) const;

    /** Edge accessor (checked). */
    const DfgEdge &edge(EdgeId id) const;

    /** Outgoing edge ids of a node, ascending (checked). */
    std::span<const EdgeId> outEdges(NodeId id) const;

    /** Incoming edge ids of a node, ascending (checked). */
    std::span<const EdgeId> inEdges(NodeId id) const;

    /** Distinct successor node ids, ascending (checked). */
    std::span<const NodeId> successors(NodeId id) const;

    /** Distinct predecessor node ids, ascending (checked). */
    std::span<const NodeId> predecessors(NodeId id) const;

    /** All nodes, in id order. */
    const std::vector<DfgNode> &nodes() const { return nodes_; }

    /** All edges, in id order. */
    const std::vector<DfgEdge> &edges() const { return edges_; }

    /** Sum of node latencies; a safe upper bound for RecMII search. */
    int totalLatency() const;

    /** True when every edge's endpoints are valid and distances >= 0. */
    bool wellFormed(std::string *why = nullptr) const;

    /** Optional loop name used by reports. */
    const std::string &name() const { return name_; }

  private:
    friend class DfgBuilder;

    /** One relation in CSR form: row v is ids[off[v], off[v + 1]). */
    struct Rows
    {
        std::vector<int> off;
        std::vector<int> ids;
    };

    std::span<const int> row(const Rows &rows, NodeId id) const;

    std::vector<DfgNode> nodes_;
    std::vector<DfgEdge> edges_;
    Rows out_;
    Rows in_;
    Rows succs_;
    Rows preds_;
    std::string name_;
};

} // namespace cams

#endif // CAMS_GRAPH_DFG_HH
