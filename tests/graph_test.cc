/**
 * @file
 * Unit tests for the graph substrate: opcodes (Table 2), the DFG
 * container, the builder, text round-tripping and DOT output.
 */

#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "graph/dfg.hh"
#include "graph/dot.hh"
#include "graph/opcode.hh"
#include "graph/textio.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

TEST(Opcode, Table2Latencies)
{
    EXPECT_EQ(opcodeLatency(Opcode::IntAlu), 1);
    EXPECT_EQ(opcodeLatency(Opcode::IntShift), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Branch), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Store), 1);
    EXPECT_EQ(opcodeLatency(Opcode::FpAdd), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Copy), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Load), 2);
    EXPECT_EQ(opcodeLatency(Opcode::FpMult), 3);
    EXPECT_EQ(opcodeLatency(Opcode::FpDiv), 9);
    EXPECT_EQ(opcodeLatency(Opcode::FpSqrt), 9);
}

TEST(Opcode, FuClasses)
{
    EXPECT_EQ(opcodeFuClass(Opcode::Load), FuClass::Memory);
    EXPECT_EQ(opcodeFuClass(Opcode::Store), FuClass::Memory);
    EXPECT_EQ(opcodeFuClass(Opcode::IntAlu), FuClass::Integer);
    EXPECT_EQ(opcodeFuClass(Opcode::Branch), FuClass::Integer);
    EXPECT_EQ(opcodeFuClass(Opcode::FpSqrt), FuClass::Float);
    EXPECT_EQ(opcodeFuClass(Opcode::Copy), FuClass::None);
}

TEST(Opcode, NameRoundTrip)
{
    for (int i = 0; i < numOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        Opcode parsed;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode dummy;
    EXPECT_FALSE(opcodeFromName("nosuchop", dummy));
}

TEST(Dfg, AddNodesAndEdges)
{
    DfgBuilder builder;
    const NodeId a = builder.addNode(Opcode::Load);
    const NodeId b = builder.addNode(Opcode::FpMult, 5, "custom");
    builder.addEdge(a, b);
    EXPECT_EQ(builder.numNodes(), 2);
    EXPECT_EQ(builder.node(a).name, "ld0"); // opcode name plus id
    const Dfg graph = builder.build();
    EXPECT_EQ(graph.numNodes(), 2);
    EXPECT_EQ(graph.numEdges(), 1);
    EXPECT_EQ(graph.node(a).latency, 2); // Load default
    EXPECT_EQ(graph.node(b).latency, 5);
    EXPECT_EQ(graph.node(b).name, "custom");
    EXPECT_EQ(graph.edge(0).latency, 2); // producer latency default
    EXPECT_EQ(graph.edge(0).distance, 0);
}

template <typename T>
std::vector<T>
asVector(std::span<const T> row)
{
    return {row.begin(), row.end()};
}

/**
 * The CSR index against a scan of edges(): in/out edge ids are the
 * edge list filtered by endpoint, in id order, and the neighbor rows
 * are the sorted, distinct far endpoints.
 */
void
expectIndexMatchesEdges(const Dfg &graph)
{
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        std::vector<EdgeId> in, out;
        std::vector<NodeId> preds, succs;
        for (const DfgEdge &edge : graph.edges()) {
            if (edge.dst == v) {
                in.push_back(edge.id);
                preds.push_back(edge.src);
            }
            if (edge.src == v) {
                out.push_back(edge.id);
                succs.push_back(edge.dst);
            }
        }
        for (auto *ids : {&preds, &succs}) {
            std::sort(ids->begin(), ids->end());
            ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
        }
        EXPECT_EQ(asVector(graph.inEdges(v)), in) << "node " << v;
        EXPECT_EQ(asVector(graph.outEdges(v)), out) << "node " << v;
        EXPECT_EQ(asVector(graph.predecessors(v)), preds) << "node " << v;
        EXPECT_EQ(asVector(graph.successors(v)), succs) << "node " << v;
    }
}

TEST(Dfg, IndexParallelEdgesAndSelfLoop)
{
    DfgBuilder builder;
    const NodeId a = builder.addNode(Opcode::IntAlu);
    const NodeId b = builder.addNode(Opcode::IntAlu);
    builder.addNode(Opcode::Load); // isolated
    builder.addEdge(a, b);
    builder.addEdge(b, b, -1, 1); // self-loop
    builder.addEdge(a, b, -1, 1); // parallel edge, different distance
    const Dfg graph = builder.build();
    EXPECT_EQ(asVector(graph.outEdges(a)), (std::vector<EdgeId>{0, 2}));
    EXPECT_EQ(asVector(graph.inEdges(b)), (std::vector<EdgeId>{0, 1, 2}));
    EXPECT_EQ(asVector(graph.successors(a)), std::vector<NodeId>{b});
    EXPECT_EQ(asVector(graph.predecessors(b)), (std::vector<NodeId>{a, b}));
    EXPECT_EQ(asVector(graph.successors(b)), std::vector<NodeId>{b});
    EXPECT_TRUE(graph.inEdges(2).empty());
    EXPECT_TRUE(graph.successors(2).empty());
    expectIndexMatchesEdges(graph);
}

TEST(Dfg, IndexWithoutEdges)
{
    const Dfg empty;
    EXPECT_EQ(empty.numNodes(), 0);
    EXPECT_EQ(DfgBuilder().build().numEdges(), 0);

    DfgBuilder builder;
    builder.addNode(Opcode::Load);
    builder.addNode(Opcode::Store);
    const Dfg graph = builder.build();
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        EXPECT_TRUE(graph.inEdges(v).empty());
        EXPECT_TRUE(graph.outEdges(v).empty());
        EXPECT_TRUE(graph.predecessors(v).empty());
        EXPECT_TRUE(graph.successors(v).empty());
    }
    expectIndexMatchesEdges(graph);
}

TEST(Dfg, IndexWithAppendedCopies)
{
    // The assigner's layout: originals first, then a copy node per
    // crossing value, and the copy edges ahead of the original ones,
    // so edge ids do not follow node ids.
    DfgBuilder builder;
    const NodeId a = builder.addNode(Opcode::Load);
    const NodeId b = builder.addNode(Opcode::IntAlu);
    const NodeId c = builder.addNode(Opcode::Store);
    const NodeId cp = builder.addNode(Opcode::Copy, 1, "cp_a");
    builder.addEdge(a, cp);              // 0
    builder.addEdge(b, c);               // 1
    builder.addEdge(cp, c, 1, 0);        // 2
    builder.addEdge(cp, b, 1, 1);        // 3
    builder.addEdge(a, b);               // 4
    const Dfg graph = builder.build();
    EXPECT_EQ(asVector(graph.outEdges(a)), (std::vector<EdgeId>{0, 4}));
    EXPECT_EQ(asVector(graph.successors(a)), (std::vector<NodeId>{b, cp}));
    EXPECT_EQ(asVector(graph.inEdges(c)), (std::vector<EdgeId>{1, 2}));
    EXPECT_EQ(asVector(graph.predecessors(b)), (std::vector<NodeId>{a, cp}));
    expectIndexMatchesEdges(graph);
}

TEST(Dfg, IndexOfEverySuiteLoop)
{
    for (const Dfg &loop : buildSuite()) {
        SCOPED_TRACE(loop.name());
        expectIndexMatchesEdges(loop);
    }
}

TEST(Dfg, RejectsBadIdsAndEdges)
{
    DfgBuilder builder;
    builder.addNode(Opcode::IntAlu);
    EXPECT_DEATH({ builder.addEdge(0, 1); }, "bad edge dst");
    EXPECT_DEATH({ builder.addEdge(-1, 0); }, "bad edge src");
    EXPECT_DEATH({ builder.addEdge(0, 0, -1, -1); }, "negative edge distance");
    EXPECT_DEATH({ builder.node(1); }, "bad node id");
    const Dfg graph = builder.build();
    EXPECT_DEATH({ graph.node(1); }, "bad node id");
    EXPECT_DEATH({ graph.edge(0); }, "bad edge id");
    EXPECT_DEATH({ graph.inEdges(1); }, "bad node id");
    EXPECT_DEATH({ graph.successors(-1); }, "bad node id");
}

TEST(Dfg, TotalLatency)
{
    DfgBuilder builder;
    builder.addNode(Opcode::Load);   // 2
    builder.addNode(Opcode::FpMult); // 3
    EXPECT_EQ(builder.build().totalLatency(), 5);
}

TEST(Dfg, WellFormed)
{
    DfgBuilder builder;
    const NodeId a = builder.addNode(Opcode::IntAlu);
    builder.addEdge(a, a, -1, 1);
    std::string why;
    EXPECT_TRUE(builder.build().wellFormed(&why)) << why;
}

TEST(Builder, NamedConstruction)
{
    Dfg graph = DfgBuilder("test")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::FpAdd)
                    .op("c", Opcode::Store)
                    .chain({"a", "b", "c"})
                    .carried("b", "b", 1)
                    .build();
    EXPECT_EQ(graph.name(), "test");
    EXPECT_EQ(graph.numNodes(), 3);
    EXPECT_EQ(graph.numEdges(), 3);
    EXPECT_EQ(graph.node(0).name, "a");
}

TEST(TextIo, RoundTrip)
{
    Dfg original = DfgBuilder("rt")
                       .op("x", Opcode::Load)
                       .op("y", Opcode::FpMult, 7)
                       .op("z", Opcode::Store)
                       .flow("x", "y")
                       .carried("y", "z", 2)
                       .build();
    const std::string text = serializeDfg(original);
    Dfg parsed;
    std::string error;
    ASSERT_TRUE(parseDfg(text, parsed, error)) << error;
    EXPECT_EQ(parsed.name(), "rt");
    ASSERT_EQ(parsed.numNodes(), 3);
    ASSERT_EQ(parsed.numEdges(), 2);
    EXPECT_EQ(parsed.node(1).latency, 7);
    EXPECT_EQ(parsed.edge(1).distance, 2);
    // Serializing again must be identical.
    EXPECT_EQ(serializeDfg(parsed), text);
}

TEST(TextIo, ParseWithCommentsAndBlanks)
{
    const std::string text = "# header\n"
                             "loop demo\n"
                             "\n"
                             "node a ld   # a load\n"
                             "node b st\n"
                             "edge a b lat=4 dist=1\n";
    Dfg graph;
    std::string error;
    ASSERT_TRUE(parseDfg(text, graph, error)) << error;
    EXPECT_EQ(graph.numNodes(), 2);
    EXPECT_EQ(graph.edge(0).latency, 4);
    EXPECT_EQ(graph.edge(0).distance, 1);
}

TEST(TextIo, RejectsBadInput)
{
    Dfg graph;
    std::string error;
    EXPECT_FALSE(parseDfg("node a nosuchop\n", graph, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(parseDfg("edge a b\n", graph, error));
    EXPECT_FALSE(parseDfg("node a ld\nnode a ld\n", graph, error));
    EXPECT_FALSE(parseDfg("bogus\n", graph, error));
    EXPECT_FALSE(parseDfg("node a ld lat=x\n", graph, error));
}

TEST(Dot, ContainsNodesAndClusterGroups)
{
    Dfg graph = DfgBuilder("d")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const std::string plain = toDot(graph);
    EXPECT_NE(plain.find("n0 -> n1"), std::string::npos);
    EXPECT_EQ(plain.find("subgraph"), std::string::npos);

    const std::vector<int> clusters = {0, 1};
    const std::string grouped = toDot(graph, &clusters);
    EXPECT_NE(grouped.find("subgraph cluster_0"), std::string::npos);
    EXPECT_NE(grouped.find("subgraph cluster_1"), std::string::npos);
}

TEST(Dot, CarriedEdgesDashed)
{
    Dfg graph = DfgBuilder("d2")
                    .op("a", Opcode::FpAdd)
                    .carried("a", "a", 3)
                    .build();
    const std::string dot = toDot(graph);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("d3"), std::string::npos);
}

} // namespace
} // namespace cams
