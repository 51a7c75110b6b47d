/**
 * @file
 * The one way to construct a loop graph.
 *
 * Nodes and edges are appended by id (addNode/addEdge: the parsers,
 * the generator, the cache reader and the assigner's materialize
 * step) or by name (op/flow/carried/chain: tests, examples and the
 * hand-coded kernel library). build() lays out the Dfg's neighbor
 * index with stable counting sorts over the edge list, so every row
 * keeps edge-id order, and the finished graph never changes.
 */

#ifndef CAMS_GRAPH_BUILDER_HH
#define CAMS_GRAPH_BUILDER_HH

#include <map>
#include <string>
#include <vector>

#include "graph/dfg.hh"

namespace cams
{

/** Builds a Dfg node by node and edge by edge. */
class DfgBuilder
{
  public:
    /** Starts a new loop graph with the given report name. */
    explicit DfgBuilder(std::string loop_name = "");

    /** Sets the loop name. */
    void setName(std::string name);

    /** Pre-sizes the node and edge tables for a graph of known size. */
    void reserve(int nodes, int edges);

    /**
     * Adds a node; latency < 0 means "use the opcode default", and an
     * empty name becomes the opcode name plus the id.
     */
    NodeId addNode(Opcode op, int latency = -1, std::string name = "");

    /**
     * Adds a dependence edge between nodes added earlier.
     * @param latency < 0 means "use the producer's latency".
     */
    EdgeId addEdge(NodeId src, NodeId dst, int latency = -1,
                   int distance = 0);

    /** Nodes added so far. */
    int numNodes() const { return graph_.numNodes(); }

    /** A node added earlier (checked). */
    const DfgNode &node(NodeId id) const { return graph_.node(id); }

    /**
     * Adds a named node.
     * @param latency < 0 uses the Table 2 default for the opcode.
     */
    DfgBuilder &op(const std::string &name, Opcode opcode,
                   int latency = -1);

    /** Adds an intra-iteration dependence (distance 0). */
    DfgBuilder &flow(const std::string &src, const std::string &dst,
                     int latency = -1);

    /** Adds a loop-carried dependence with the given distance. */
    DfgBuilder &carried(const std::string &src, const std::string &dst,
                        int distance, int latency = -1);

    /** Adds a left-to-right chain of intra-iteration dependences. */
    DfgBuilder &chain(const std::vector<std::string> &names);

    /** Node id for a name added by op(); fatal on unknown names. */
    NodeId id(const std::string &name) const;

    /** Lays out the neighbor index and returns the finished graph. */
    Dfg build();

  private:
    Dfg graph_;
    std::map<std::string, NodeId> names_;
};

} // namespace cams

#endif // CAMS_GRAPH_BUILDER_HH
