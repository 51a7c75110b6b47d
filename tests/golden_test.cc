/**
 * @file
 * Golden digests of the full benchmark suite.
 *
 * Each case compiles all 1327 suite loops for one (machine, variant,
 * backend) and folds every result into one 64-bit FNV-1a digest: the
 * success flag, the II, every start cycle, every placement with its
 * copy destinations, and the annotated graph the assigner built (node
 * opcodes and names, edges with latency and distance). The expected
 * values are checked in, so any change to a single decision anywhere
 * in the pipeline -- order, assignment, copy routing, scheduling, the
 * exact arm -- shows up as a digest mismatch. A change that alters
 * output on purpose must update the table and say why.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>

#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

class Digest
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xFF;
            hash_ *= 0x100000001B3ULL;
        }
    }

    void
    add(const std::string &text)
    {
        add(text.size());
        for (char ch : text)
            add(static_cast<uint64_t>(static_cast<unsigned char>(ch)));
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void
addResult(Digest &digest, const CompileResult &result)
{
    digest.add(result.success ? 1 : 0);
    digest.add(static_cast<uint64_t>(result.ii));
    if (!result.success)
        return;
    digest.add(result.schedule.startCycle.size());
    for (int cycle : result.schedule.startCycle)
        digest.add(static_cast<uint64_t>(cycle));
    digest.add(result.loop.placement.size());
    for (const OpPlacement &placement : result.loop.placement) {
        digest.add(static_cast<uint64_t>(placement.cluster));
        digest.add(placement.copyDsts.size());
        for (ClusterId dst : placement.copyDsts)
            digest.add(static_cast<uint64_t>(dst));
    }
    const Dfg &graph = result.loop.graph;
    for (const DfgNode &node : graph.nodes()) {
        digest.add(static_cast<uint64_t>(node.op));
        digest.add(node.name);
    }
    for (const DfgEdge &edge : graph.edges()) {
        digest.add(static_cast<uint64_t>(edge.src));
        digest.add(static_cast<uint64_t>(edge.dst));
        digest.add(static_cast<uint64_t>(edge.latency));
        digest.add(static_cast<uint64_t>(edge.distance));
    }
}

const std::vector<Dfg> &
suite()
{
    static const std::vector<Dfg> loops = buildSuite();
    return loops;
}

struct GoldenCase
{
    const char *name;
    MachineDesc (*machine)();
    bool iterative;
    bool fullHeuristic;
    CompileBackend backend;
    uint64_t expected;
};

MachineDesc gp2() { return busedGpMachine(2, 2, 1); }
MachineDesc gp4() { return busedGpMachine(4, 4, 2); }
MachineDesc fs2() { return busedFsMachine(2, 2, 1); }
MachineDesc grid() { return gridMachine(); }

constexpr CompileBackend heuristic = CompileBackend::Heuristic;
constexpr CompileBackend race = CompileBackend::Race;

const GoldenCase goldenCases[] = {
    {"2c-gp-2b-1p/heuristic-iterative", gp2, true, true, heuristic,
     0x8F9FE0F174B8E3BFULL},
    {"2c-gp-2b-1p/simple-iterative", gp2, true, false, heuristic,
     0x719D64F08DF23F32ULL},
    {"2c-gp-2b-1p/heuristic", gp2, false, true, heuristic,
     0x48A4871DD0A77C6CULL},
    {"2c-gp-2b-1p/simple", gp2, false, false, heuristic,
     0x8EA35B188F79E721ULL},
    {"4c-gp-4b-2p/heuristic-iterative", gp4, true, true, heuristic,
     0x91BFC03B432FED43ULL},
    {"4c-gp-4b-2p/simple-iterative", gp4, true, false, heuristic,
     0x1BDD0E9F57AA2E66ULL},
    {"4c-gp-4b-2p/heuristic", gp4, false, true, heuristic,
     0xA49A6032BC224F1EULL},
    {"4c-gp-4b-2p/simple", gp4, false, false, heuristic,
     0xAE5B87546A9F53E2ULL},
    {"2c-fs-2b-1p/heuristic-iterative", fs2, true, true, heuristic,
     0x6687532FB6DEDD0FULL},
    {"grid/heuristic-iterative", grid, true, true, heuristic,
     0x4180E352AD9722AFULL},
    {"2c-gp-2b-1p/race", gp2, true, true, race,
     0xE7638587D7B12B67ULL},
    {"4c-gp-4b-2p/race", gp4, true, true, race,
     0xC5FD9FCD28E6A1D8ULL},
};

class GoldenDigest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenDigest, FullSuiteMatches)
{
    const GoldenCase &golden = GetParam();
    const MachineDesc machine = golden.machine();
    CompileOptions options;
    options.assign.iterative = golden.iterative;
    options.assign.fullHeuristic = golden.fullHeuristic;
    options.backend = golden.backend;

    Digest digest;
    for (const Dfg &loop : suite())
        addResult(digest, compileClustered(loop, machine, options));
    char printed[32];
    std::snprintf(printed, sizeof printed, "0x%016llXULL",
                  static_cast<unsigned long long>(digest.value()));
    EXPECT_EQ(digest.value(), golden.expected)
        << golden.name << " digest is " << printed;
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    std::string name;
    for (const char *p = info.param.name; *p; ++p)
        name += std::isalnum(static_cast<unsigned char>(*p)) ? *p : '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenDigest,
                         ::testing::ValuesIn(goldenCases), caseName);

} // namespace
} // namespace cams
