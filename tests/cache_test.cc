/**
 * @file
 * Tests of the persistent compile cache: entry keys taken from the
 * exact loop image (so renamed and renumbered twins each get an entry
 * of their own), the hash behind keys and checksums, the image
 * matchers behind the byte-exact gate, binary round-trips of
 * CompileResult, rejection of version-mismatched and truncated
 * entries, concurrent read/write through the batch thread pool, and
 * results that depend only on (loop, machine, options), never on what
 * the cache has seen.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/builder.hh"
#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/driver.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir.string();
}

/** A small loop with a recurrence and distinct opcode mix. */
Dfg
sampleLoop()
{
    DfgBuilder graph("sample");
    const NodeId load = graph.addNode(Opcode::Load);
    const NodeId mul = graph.addNode(Opcode::FpMult);
    const NodeId add = graph.addNode(Opcode::IntAlu);
    const NodeId store = graph.addNode(Opcode::Store);
    graph.addEdge(load, mul);
    graph.addEdge(mul, add);
    graph.addEdge(add, store);
    graph.addEdge(add, mul, -1, 1); // recurrence
    return graph.build();
}

/** A builder holding a copy of the graph, each node passed through
 *  @p edit first: a built graph never changes, so variants of one
 *  are rebuilt. */
template <typename Edit>
DfgBuilder
copyOf(const Dfg &graph, Edit edit)
{
    DfgBuilder out(graph.name());
    for (DfgNode node : graph.nodes()) {
        edit(node);
        out.addNode(node.op, node.latency, node.name);
    }
    for (const DfgEdge &edge : graph.edges())
        out.addEdge(edge.src, edge.dst, edge.latency, edge.distance);
    return out;
}

/** Rebuilds a graph with nodes added in permuted order (and fresh
 *  names): isomorphic, but every node id differs. perm[i] is the old
 *  id that becomes new id i. */
Dfg
permuted(const Dfg &graph, const std::vector<NodeId> &perm)
{
    DfgBuilder out("permuted");
    std::vector<NodeId> newId(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
        const DfgNode &node = graph.node(perm[i]);
        newId[perm[i]] = out.addNode(node.op, node.latency,
                                     detail::concat("p", i));
    }
    for (int e = 0; e < graph.numEdges(); ++e) {
        const DfgEdge &edge = graph.edge(e);
        out.addEdge(newId[edge.src], newId[edge.dst], edge.latency,
                    edge.distance);
    }
    return out.build();
}

/** Fails unless flipping any one bit of @p bytes changes hashBytes. */
void
expectEveryBitFlipChangesHash(const std::string &bytes)
{
    const uint64_t base = hashBytes(bytes);
    std::string flipped = bytes;
    for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
        flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        ASSERT_NE(hashBytes(flipped), base) << "bit " << bit;
        flipped[bit / 8] = bytes[bit / 8];
    }
}

TEST(CacheHash, EveryBitFlipOfAnImageChangesTheHash)
{
    expectEveryBitFlipChangesHash(packDfg(buildSuite(1).front()));
    expectEveryBitFlipChangesHash(packDfg(sampleLoop()));
}

TEST(CacheHash, ZeroFilledInputsOfEveryLengthDiffer)
{
    // The zero-padded tail alone would make these equal; the folded
    // length tells them apart.
    std::vector<uint64_t> seen;
    for (size_t length = 0; length <= 16; ++length) {
        const uint64_t h = hashBytes(std::string(length, '\0'));
        for (const uint64_t other : seen)
            ASSERT_NE(h, other) << "length " << length;
        seen.push_back(h);
    }
}

TEST(CacheSerialize, DfgRoundTripPreservesIds)
{
    // Anonymous and duplicate-named nodes round-trip exactly -- the
    // property the text format cannot provide.
    DfgBuilder builder;
    builder.addNode(Opcode::Load, -1, "dup");
    builder.addNode(Opcode::IntAlu, -1, "dup");
    builder.addNode(Opcode::Store); // anonymous
    builder.addEdge(0, 1);
    builder.addEdge(1, 2, 7, 3);
    const Dfg graph = builder.build();

    Dfg back;
    ASSERT_TRUE(readDfg(packDfg(graph), back));
    ASSERT_EQ(back.numNodes(), graph.numNodes());
    ASSERT_EQ(back.numEdges(), graph.numEdges());
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        EXPECT_EQ(back.node(v).op, graph.node(v).op);
        EXPECT_EQ(back.node(v).latency, graph.node(v).latency);
        EXPECT_EQ(back.node(v).name, graph.node(v).name);
    }
    for (int e = 0; e < graph.numEdges(); ++e) {
        EXPECT_EQ(back.edge(e).src, graph.edge(e).src);
        EXPECT_EQ(back.edge(e).dst, graph.edge(e).dst);
        EXPECT_EQ(back.edge(e).latency, graph.edge(e).latency);
        EXPECT_EQ(back.edge(e).distance, graph.edge(e).distance);
    }
    EXPECT_EQ(packDfg(back), packDfg(graph));
}

TEST(CacheSerialize, CompileResultRoundTrip)
{
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    ASSERT_TRUE(result.success);

    ByteWriter writer;
    writeCompileResult(writer, result);
    const std::string bytes = writer.take();

    ByteReader reader(bytes);
    CompileResult back;
    ASSERT_TRUE(readCompileResult(reader, back));
    ASSERT_TRUE(reader.atEnd());

    EXPECT_EQ(back.success, result.success);
    EXPECT_EQ(back.ii, result.ii);
    EXPECT_EQ(back.mii.mii, result.mii.mii);
    EXPECT_EQ(back.mii.recMii, result.mii.recMii);
    EXPECT_EQ(back.mii.resMii, result.mii.resMii);
    EXPECT_EQ(back.copies, result.copies);
    EXPECT_EQ(back.attempts, result.attempts);
    EXPECT_EQ(back.evictions, result.evictions);
    EXPECT_EQ(back.failure, result.failure);
    EXPECT_EQ(back.degraded, result.degraded);
    EXPECT_EQ(back.ctxHits, result.ctxHits);
    EXPECT_EQ(back.mrtWordScans, result.mrtWordScans);
    EXPECT_EQ(back.phaseMs.totalMs, result.phaseMs.totalMs);
    EXPECT_EQ(back.schedule.ii, result.schedule.ii);
    EXPECT_EQ(back.schedule.startCycle, result.schedule.startCycle);
    EXPECT_EQ(packDfg(back.loop.graph), packDfg(result.loop.graph));
    ASSERT_EQ(back.loop.placement.size(), result.loop.placement.size());
    for (size_t i = 0; i < result.loop.placement.size(); ++i) {
        EXPECT_EQ(back.loop.placement[i].cluster,
                  result.loop.placement[i].cluster);
        EXPECT_EQ(back.loop.placement[i].copyDsts,
                  result.loop.placement[i].copyDsts);
    }
    // Transient cache flags never travel.
    EXPECT_FALSE(back.fromCache);
    EXPECT_FALSE(back.cacheProbed);
}

TEST(CacheSerialize, ImageMatchersAgreeWithPack)
{
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::string image = packDfg(graph);
    const std::string machineImage = packMachine(machine);
    EXPECT_TRUE(dfgImageMatches(image, graph));
    EXPECT_TRUE(machineImageMatches(machineImage, machine));
    EXPECT_EQ(dfgImageHash(graph), hashBytes(image));
    EXPECT_EQ(machineImageHash(machine), hashBytes(machineImage));

    // A strict prefix, a longer image and any one flipped byte all
    // fail the gate.
    EXPECT_FALSE(dfgImageMatches(image.substr(0, image.size() - 1),
                                 graph));
    EXPECT_FALSE(dfgImageMatches(image + '\0', graph));
    EXPECT_FALSE(machineImageMatches(machineImage + '\0', machine));
    for (size_t i = 0; i < image.size(); ++i) {
        std::string flipped = image;
        flipped[i] ^= 0x01;
        EXPECT_FALSE(dfgImageMatches(flipped, graph)) << "byte " << i;
    }
    for (size_t i = 0; i < machineImage.size(); ++i) {
        std::string flipped = machineImage;
        flipped[i] ^= 0x01;
        EXPECT_FALSE(machineImageMatches(flipped, machine))
            << "byte " << i;
    }
    // Another loop's image, and a renumbered twin's, do not match.
    EXPECT_FALSE(dfgImageMatches(
        packDfg(permuted(graph, {3, 1, 0, 2})), graph));
}

TEST(CacheSerialize, ImageHashAndGateAgreeWithPackOnEverySuiteLoop)
{
    for (const Dfg &loop : buildSuite()) {
        const std::string image = packDfg(loop);
        ASSERT_EQ(dfgImageHash(loop), hashBytes(image)) << loop.name();
        ASSERT_TRUE(dfgImageMatches(image, loop)) << loop.name();
    }
}

TEST(CacheSerialize, ReadDfgRejectsCountsTheBytesCannotHold)
{
    const Dfg graph = sampleLoop();
    std::string image = packDfg(graph);
    Dfg back;
    ASSERT_TRUE(readDfg(image, back));
    // The node count follows the length-prefixed loop name.
    const size_t countAt = 8 + graph.name().size();
    image[countAt + 2] = 0x01; // 4 nodes -> 65540 nodes
    EXPECT_FALSE(readDfg(image, back));
}

TEST(CacheSerialize, ReaderRejectsTruncation)
{
    ByteWriter writer;
    writer.u64(42);
    writer.str("hello");
    const std::string bytes = writer.take();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        // The reader keeps a reference: the prefix must outlive it.
        const std::string prefix = bytes.substr(0, cut);
        ByteReader reader(prefix);
        uint64_t v = 0;
        std::string s;
        EXPECT_FALSE(reader.u64(v) && reader.str(s) && reader.atEnd())
            << "accepted a " << cut << "-byte truncation";
    }
}

TEST(CompileCacheTest, HitServesStoredResult)
{
    const std::string dir = scratchDir("cache_hit");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    CompileCache cache(dir, CacheMode::ReadWrite);
    ASSERT_TRUE(cache.enabled());
    options.cache = &cache;

    const CompileResult cold = compileClustered(graph, machine, options);
    ASSERT_TRUE(cold.success);
    EXPECT_TRUE(cold.cacheProbed);
    EXPECT_FALSE(cold.fromCache);

    const CompileResult warm = compileClustered(graph, machine, options);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.ii, cold.ii);
    EXPECT_EQ(warm.copies, cold.copies);
    EXPECT_EQ(warm.attempts, cold.attempts);
    EXPECT_EQ(packDfg(warm.loop.graph), packDfg(cold.loop.graph));

    // A second cache on the same directory (a new process) serves the
    // same entry.
    CompileCache reopened(dir, CacheMode::ReadOnly);
    CompileOptions ro = options;
    ro.cache = &reopened;
    const CompileResult again = compileClustered(graph, machine, ro);
    EXPECT_TRUE(again.fromCache);
    EXPECT_EQ(again.ii, cold.ii);
}

TEST(CompileCacheTest, IsomorphicRenumberingMissesOnExactMatch)
{
    const std::string dir = scratchDir("cache_iso");
    const Dfg graph = sampleLoop();
    const Dfg twin = permuted(graph, {3, 1, 0, 2});
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    CompileCache cache(dir, CacheMode::ReadWrite);
    options.cache = &cache;
    ASSERT_TRUE(compileClustered(graph, machine, options).success);

    // Isomorphic, but the entry is keyed by the exact image: the twin
    // must not be served another graph's node ids.
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const CacheKey twinKey = makeCacheKey(twin, machine, options, true);
    EXPECT_NE(key.entryId(), twinKey.entryId());
    CompileResult out;
    EXPECT_FALSE(cache.lookup(twinKey, twin, machine, out));

    const CompileResult res = compileClustered(twin, machine, options);
    EXPECT_TRUE(res.success);
    EXPECT_FALSE(res.fromCache);

    // The twin's own entry serves its second compile.
    const CompileResult again = compileClustered(twin, machine, options);
    EXPECT_TRUE(again.fromCache);
    EXPECT_EQ(again.ii, res.ii);
}

TEST(CompileCacheTest, KeyTellsApartIsomorphicLoops)
{
    const Dfg graph = sampleLoop();
    const Dfg twin = permuted(graph, {2, 3, 1, 0});
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileOptions options;

    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const CacheKey twinKey = makeCacheKey(twin, machine, options, true);
    EXPECT_NE(key.entryId(), twinKey.entryId());
    EXPECT_NE(key.fileName(), twinKey.fileName());
    EXPECT_EQ(key.imageHash, hashBytes(packDfg(graph)));
    EXPECT_EQ(key.entryId(),
              makeCacheKey(graph, machine, options, true).entryId());
}

TEST(CompileCacheTest, RenamedAndRenumberedTwinsGetTheirOwnEntries)
{
    const std::string dir = scratchDir("cache_twins");
    const Dfg graph = sampleLoop();
    DfgBuilder twin = copyOf(graph, [](DfgNode &node) {
        if (node.id == 2)
            node.name = "sum";
    });
    twin.setName("renamed-twin");
    const Dfg renamed = twin.build();
    const Dfg renumbered = permuted(graph, {1, 3, 0, 2});
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadWrite);
    CompileOptions options;
    options.cache = &cache;
    const Dfg *const loops[] = {&graph, &renamed, &renumbered};
    for (const Dfg *loop : loops) {
        const CompileResult cold = compileClustered(*loop, machine,
                                                    options);
        ASSERT_TRUE(cold.success) << loop->name();
        EXPECT_FALSE(cold.fromCache) << loop->name();
        const CompileResult warm = compileClustered(*loop, machine,
                                                    options);
        EXPECT_TRUE(warm.fromCache) << loop->name();
        EXPECT_EQ(packDfg(warm.loop.graph), packDfg(cold.loop.graph))
            << loop->name();
    }
    EXPECT_EQ(cache.totals().entries, 3);
    EXPECT_EQ(cache.totals().hits, 3);
    EXPECT_EQ(cache.totals().misses, 3);
}

TEST(CompileCacheTest, RejectsVersionMismatchAndTruncation)
{
    const std::string dir = scratchDir("cache_corrupt");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(compileClustered(graph, machine, options).success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    ASSERT_TRUE(fs::exists(entry));

    // Flip the format-version field (bytes 4..7 after the magic).
    {
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekp(4);
        f.put(char(0x7f));
    }
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        CompileResult out;
        EXPECT_FALSE(cache.lookup(key, graph, machine, out));
        EXPECT_EQ(cache.totals().rejects, 1);
        // rw mode unlinks the bad entry.
        EXPECT_FALSE(fs::exists(entry));
    }

    // Repopulate, then truncate the payload.
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(compileClustered(graph, machine, options).success);
    }
    ASSERT_TRUE(fs::exists(entry));
    fs::resize_file(entry, fs::file_size(entry) / 2);
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        CompileResult out;
        EXPECT_FALSE(cache.lookup(key, graph, machine, out));
        EXPECT_EQ(cache.totals().rejects, 1);
        options.cache = &cache;
        // And the compile path degrades to a cold compile.
        const CompileResult res =
            compileClustered(graph, machine, options);
        EXPECT_TRUE(res.success);
        EXPECT_FALSE(res.fromCache);
    }
}

TEST(CompileCacheTest, ReadOnlyModeWritesNothing)
{
    const std::string dir = scratchDir("cache_ro");
    fs::create_directories(dir);
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadOnly);
    ASSERT_TRUE(cache.enabled());
    CompileOptions options;
    options.cache = &cache;
    ASSERT_TRUE(compileClustered(graph, machine, options).success);
    EXPECT_EQ(cache.totals().entries, 0);
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(CompileCacheTest, FaultInjectedCompilesBypassTheCache)
{
    const std::string dir = scratchDir("cache_faults");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadWrite);
    CompileOptions options;
    options.cache = &cache;
    options.faults = std::make_shared<FaultInjector>(
        FaultConfig::uniform(0.5, 7));
    const CompileResult res = compileClustered(graph, machine, options);
    EXPECT_FALSE(res.cacheProbed);
    EXPECT_EQ(cache.totals().entries, 0);
}

TEST(CompileCacheTest, ConcurrentReadWriteThroughThePool)
{
    const std::string dir = scratchDir("cache_mt");
    const std::vector<Dfg> suite = buildSuite(40);
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadWrite);
    CompileOptions options;
    options.cache = &cache;

    // Cold fan-out: 8 workers race lookups and stores on one cache.
    const BatchOutcome cold =
        BatchRunner::run(clusteredJobs(suite, machine, options), 8);
    EXPECT_EQ(cold.stats.cacheMisses + cold.stats.cacheHits, 40);

    // Warm fan-out must serve every job with identical figures.
    const BatchOutcome warm =
        BatchRunner::run(clusteredJobs(suite, machine, options), 8);
    EXPECT_EQ(warm.stats.cacheHits, 40);
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (size_t i = 0; i < cold.results.size(); ++i) {
        EXPECT_EQ(warm.results[i].success, cold.results[i].success);
        EXPECT_EQ(warm.results[i].ii, cold.results[i].ii);
        EXPECT_EQ(warm.results[i].copies, cold.results[i].copies);
        EXPECT_EQ(warm.results[i].attempts, cold.results[i].attempts);
    }
}

/** The result's serialized bytes with wall-clock times zeroed. */
std::string
canonicalBytes(const CompileResult &result)
{
    CompileResult copy = result;
    copy.phaseMs = PhaseTimes{};
    ByteWriter writer;
    writeCompileResult(writer, copy);
    return writer.take();
}

TEST(CompileCacheTest, ResultsDoNotDependOnWhatTheCacheHasSeen)
{
    const std::string dir = scratchDir("cache_pure_memo");
    const std::vector<Dfg> suite = buildSuite(200);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileCache cache(dir, CacheMode::ReadWrite);

    // Fill the cache with another variant's compiles of every loop.
    CompileOptions simple;
    simple.assign.fullHeuristic = false;
    simple.assign.iterative = false;
    simple.cache = &cache;
    for (const Dfg &loop : suite)
        compileClustered(loop, machine, simple);
    EXPECT_EQ(cache.totals().entries, 200);

    // The default options miss every entry, and each miss must give
    // exactly the cache-free result.
    CompileOptions cached;
    cached.cache = &cache;
    for (const Dfg &loop : suite) {
        const CompileResult res = compileClustered(loop, machine, cached);
        EXPECT_TRUE(res.cacheProbed);
        EXPECT_FALSE(res.fromCache) << loop.name();
        ASSERT_EQ(canonicalBytes(res),
                  canonicalBytes(compileClustered(loop, machine)))
            << loop.name();
    }
    EXPECT_EQ(cache.totals().entries, 400);
}

/** Whole-file read/write helpers for corruption tests. */
std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spill(const fs::path &path, const std::string &bytes, size_t length)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(
                  std::min(length, bytes.size())));
}

TEST(CompileCacheTest, ScrubQuarantinesTornEntryAtEveryBoundary)
{
    const std::string dir = scratchDir("cache_scrub_torn");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    CompileResult cold;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        cold = compileClustered(graph, machine, options);
        ASSERT_TRUE(cold.success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    const std::string valid = slurp(entry);
    ASSERT_FALSE(valid.empty());

    // A write torn at *any* byte must be quarantined, never served.
    for (size_t length = 0; length < valid.size(); ++length) {
        spill(entry, valid, length);
        const ScrubReport report = scrubCacheDir(dir);
        ASSERT_TRUE(report.error.empty()) << report.error;
        ASSERT_EQ(report.entriesScanned, 1) << "length " << length;
        ASSERT_EQ(report.quarantined, 1) << "length " << length;
        ASSERT_FALSE(fs::exists(entry)) << "length " << length;
        fs::remove_all(fs::path(dir) / "corrupt");
    }

    // Intact bytes survive the scrub, and the warm lookup after it
    // serves the same result the cold compile produced.
    spill(entry, valid, valid.size());
    const ScrubReport clean = scrubCacheDir(dir);
    EXPECT_EQ(clean.entriesOk, 1);
    EXPECT_EQ(clean.quarantined, 0);
    CompileCache cache(dir, CacheMode::ReadWrite);
    options.cache = &cache;
    const CompileResult warm = compileClustered(graph, machine,
                                                options);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.ii, cold.ii);
    EXPECT_EQ(warm.copies, cold.copies);
    EXPECT_EQ(packDfg(warm.loop.graph), packDfg(cold.loop.graph));
}

TEST(CompileCacheTest, ScrubQuarantinesBitRotAndMisnamedEntries)
{
    const std::string dir = scratchDir("cache_scrub_rot");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    const std::string valid = slurp(entry);

    // One flipped bit deep in the payload: the checksum catches it.
    std::string rotten = valid;
    rotten[rotten.size() - 3] ^= 0x20;
    spill(entry, rotten, rotten.size());
    // And valid bytes filed under the wrong name: the stored-hash /
    // file-name consistency check catches the mismatch.
    const fs::path foreign = fs::path(dir) / "0123456789abcdef.cce";
    spill(foreign, valid, valid.size());

    const ScrubReport report = scrubCacheDir(dir);
    EXPECT_EQ(report.entriesScanned, 2);
    EXPECT_EQ(report.quarantined, 2);
    EXPECT_EQ(report.entriesOk, 0);
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_FALSE(fs::exists(foreign));
    // Quarantined, not deleted: the evidence moves to corrupt/.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "corrupt" /
                           key.fileName()));
}

TEST(CacheHash, EveryBitFlipOfAnEntryPayloadChangesTheHash)
{
    const std::string dir = scratchDir("cache_payload_bits");
    const Dfg loop = buildSuite(1).front();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(compileClustered(loop, machine, options).success);
    }
    const CacheKey key = makeCacheKey(loop, machine, options, true);
    const std::string bytes = slurp(fs::path(dir) / key.fileName());

    // Header: magic, version, three key hashes, the checksum, then
    // the length-prefixed payload the checksum covers.
    ByteReader reader(bytes);
    uint32_t magic = 0, version = 0;
    uint64_t hash = 0, checksum = 0;
    std::string_view payload;
    ASSERT_TRUE(reader.u32(magic) && reader.u32(version) &&
                reader.u64(hash) && reader.u64(hash) &&
                reader.u64(hash) && reader.u64(checksum) &&
                reader.view(payload) && reader.atEnd());
    ASSERT_EQ(checksum, hashBytes(payload));
    expectEveryBitFlipChangesHash(std::string(payload));
}

TEST(CompileCacheTest, ScrubQuarantinesOldFormatEntries)
{
    const std::string dir = scratchDir("cache_scrub_v2");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    std::string bytes = slurp(entry);
    ASSERT_GT(bytes.size(), 8u);
    // Rewrite the version field (bytes 4..7) to the previous format
    // 2: a well-formed entry under a valid file name, but an old one.
    ASSERT_EQ(bytes[4], char(3));
    bytes[4] = char(2);
    spill(entry, bytes, bytes.size());

    {
        CompileCache cache(dir, CacheMode::ReadOnly);
        CompileResult out;
        EXPECT_FALSE(cache.lookup(key, graph, machine, out));
        EXPECT_EQ(cache.totals().misses, 1);
        EXPECT_EQ(cache.totals().hits, 0);
    }

    const ScrubReport report = scrubCacheDir(dir);
    EXPECT_EQ(report.entriesScanned, 1);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_FALSE(fs::exists(entry));
}

TEST(CompileCacheTest, ScrubRemovesWriterDebrisAndRebuildsIndex)
{
    const std::string dir = scratchDir("cache_scrub_tmp");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    // Debris of a writer killed between open and rename, plus a
    // corrupt entry the index would otherwise have trusted.
    spill(fs::path(dir) / ".tmp-12345-deadbeef", "partial", 7);
    spill(fs::path(dir) / "00000000000000ff.cce", "garbage", 7);

    CompileCache cache(dir, CacheMode::ReadWrite);
    EXPECT_EQ(cache.totals().entries, 2); // scan trusted both names
    const ScrubReport report = cache.scrub();
    EXPECT_EQ(report.tmpRemoved, 1);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.entriesOk, 1);
    EXPECT_EQ(cache.totals().entries, 1); // index rebuilt
    EXPECT_EQ(cache.totals().quarantined, 1);
    EXPECT_FALSE(fs::exists(fs::path(dir) / ".tmp-12345-deadbeef"));

    const CacheKey key = makeCacheKey(graph, machine, options, true);
    CompileResult out;
    EXPECT_TRUE(cache.lookup(key, graph, machine, out));

    // And a scrub of a directory that is not there reports an error
    // instead of inventing an empty one.
    const ScrubReport missing =
        scrubCacheDir(dir + "/does-not-exist");
    EXPECT_FALSE(missing.error.empty());
}

TEST(CompileCacheTest, ScrubAndOpenLeaveUnknownFilesAlone)
{
    const std::string dir = scratchDir("cache_scrub_foreign");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    // A file the cache never wrote, with a torn last line: neither
    // the scrub nor the cache reads it.
    const fs::path foreign = fs::path(dir) / "notes.log";
    spill(foreign, "h1 0123 4 3 0\nh1 torn", 21);

    const ScrubReport report = scrubCacheDir(dir);
    EXPECT_TRUE(report.error.empty()) << report.error;
    EXPECT_EQ(report.entriesScanned, 1);
    EXPECT_EQ(report.entriesOk, 1);
    EXPECT_EQ(report.quarantined, 0);
    EXPECT_EQ(slurp(foreign), "h1 0123 4 3 0\nh1 torn");
    EXPECT_FALSE(fs::exists(fs::path(dir) / "corrupt"));

    CompileCache cache(dir, CacheMode::ReadWrite);
    EXPECT_EQ(cache.totals().entries, 1);
    options.cache = &cache;
    EXPECT_TRUE(compileClustered(graph, machine, options).fromCache);
}

TEST(CompileCacheTest, ModeParsing)
{
    CacheMode mode = CacheMode::Off;
    EXPECT_TRUE(parseCacheMode("rw", mode));
    EXPECT_EQ(mode, CacheMode::ReadWrite);
    EXPECT_TRUE(parseCacheMode("ro", mode));
    EXPECT_EQ(mode, CacheMode::ReadOnly);
    EXPECT_TRUE(parseCacheMode("off", mode));
    EXPECT_EQ(mode, CacheMode::Off);
    EXPECT_FALSE(parseCacheMode("readwrite", mode));
    EXPECT_STREQ(cacheModeName(CacheMode::ReadWrite), "rw");
}

} // namespace
} // namespace cams
