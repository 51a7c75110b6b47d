/**
 * @file
 * Tests of the persistent compile cache: canonical-hash invariance
 * under node renumbering, the exact-match gate that keeps isomorphic
 * renumberings from being served someone else's node ids, binary
 * round-trips of CompileResult, rejection of version-mismatched and
 * truncated entries, concurrent read/write through the batch thread
 * pool, and the stale-hint fallback to the cold path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

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
    Dfg graph;
    graph.setName("sample");
    const NodeId load = graph.addNode(Opcode::Load);
    const NodeId mul = graph.addNode(Opcode::FpMult);
    const NodeId add = graph.addNode(Opcode::IntAlu);
    const NodeId store = graph.addNode(Opcode::Store);
    graph.addEdge(load, mul);
    graph.addEdge(mul, add);
    graph.addEdge(add, store);
    graph.addEdge(add, mul, -1, 1); // recurrence
    return graph;
}

/** Rebuilds a graph with nodes added in permuted order (and fresh
 *  names): isomorphic, but every node id differs. perm[i] is the old
 *  id that becomes new id i. */
Dfg
permuted(const Dfg &graph, const std::vector<NodeId> &perm)
{
    Dfg out;
    out.setName("permuted");
    std::vector<NodeId> newId(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
        const DfgNode &node = graph.node(perm[i]);
        newId[perm[i]] = out.addNode(node.op, node.latency,
                                     "p" + std::to_string(i));
    }
    for (int e = 0; e < graph.numEdges(); ++e) {
        const DfgEdge &edge = graph.edge(e);
        out.addEdge(newId[edge.src], newId[edge.dst], edge.latency,
                    edge.distance);
    }
    return out;
}

TEST(CacheHash, InvariantUnderRenumbering)
{
    const Dfg graph = sampleLoop();
    const uint64_t h = canonicalLoopHash(graph);
    EXPECT_EQ(h, canonicalLoopHash(permuted(graph, {3, 1, 0, 2})));
    EXPECT_EQ(h, canonicalLoopHash(permuted(graph, {2, 3, 1, 0})));

    // Structure changes move the hash: a different opcode...
    Dfg other = permuted(graph, {0, 1, 2, 3});
    other.node(1).op = Opcode::IntAlu;
    EXPECT_NE(h, canonicalLoopHash(other));
    // ...or a different dependence distance.
    Dfg far = sampleLoop();
    far.addEdge(0, 3, -1, 2);
    EXPECT_NE(h, canonicalLoopHash(far));
}

TEST(CacheHash, NamesDoNotParticipate)
{
    Dfg named = sampleLoop();
    named.setName("completely-different");
    named.node(0).name = "renamed";
    EXPECT_EQ(canonicalLoopHash(sampleLoop()),
              canonicalLoopHash(named));
}

TEST(CacheSerialize, DfgRoundTripPreservesIds)
{
    // Anonymous and duplicate-named nodes round-trip exactly -- the
    // property the text format cannot provide.
    Dfg graph;
    graph.addNode(Opcode::Load, -1, "dup");
    graph.addNode(Opcode::IntAlu, -1, "dup");
    graph.addNode(Opcode::Store); // anonymous
    graph.addEdge(0, 1);
    graph.addEdge(1, 2, 7, 3);

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

    // Same canonical hash, same entry file -- but the byte-exact gate
    // must refuse to serve the twin another graph's node ids.
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const CacheKey twinKey = makeCacheKey(twin, machine, options, true);
    EXPECT_EQ(key.loopHash, twinKey.loopHash);
    CompileResult out;
    EXPECT_FALSE(cache.lookup(twinKey, twin, machine, out));

    const CompileResult res = compileClustered(twin, machine, options);
    EXPECT_TRUE(res.success);
    EXPECT_FALSE(res.fromCache);
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

TEST(CompileCacheTest, WarmStartHintAndStaleFallback)
{
    const MachineDesc machine = busedGpMachine(2, 1, 1); // starved
    const std::vector<Dfg> suite = buildSuite(60);

    // Find a loop whose clustered search had to escalate: achieved II
    // at least two above MII, so an intermediate II provably fails.
    const Dfg *loop = nullptr;
    CompileResult cold;
    for (const Dfg &candidate : suite) {
        const CompileResult res = compileClustered(candidate, machine);
        if (res.success && res.degraded == DegradeLevel::None &&
            res.ii >= res.mii.mii + 2) {
            loop = &candidate;
            cold = res;
            break;
        }
    }
    ASSERT_NE(loop, nullptr)
        << "no loop with II >= MII + 2 in the sample";

    CompileOptions options;
    const CacheKey key = makeCacheKey(*loop, machine, options, true);

    {
        // A good hint (the achieved II) satisfies the search in one
        // verified probe, with the cold result's II.
        const std::string dir = scratchDir("cache_hint_good");
        CompileCache cache(dir, CacheMode::ReadWrite);
        cache.storeHint(key, {cold.ii, cold.mii.mii, 0});
        options.cache = &cache;
        const CompileResult hinted =
            compileClustered(*loop, machine, options);
        ASSERT_TRUE(hinted.success);
        EXPECT_TRUE(hinted.hintUsed);
        EXPECT_FALSE(hinted.hintStale);
        EXPECT_EQ(hinted.ii, cold.ii);
        EXPECT_EQ(hinted.attempts, 1);
        // Hint-assisted results are never stored as full entries.
        EXPECT_EQ(cache.totals().entries, 0);
    }

    {
        // A stale hint (an II the search already proved infeasible)
        // fails its one probe and falls back to the cold path.
        const std::string dir = scratchDir("cache_hint_stale");
        CompileCache cache(dir, CacheMode::ReadWrite);
        cache.storeHint(key, {cold.mii.mii + 1, cold.mii.mii, 0});
        options.cache = &cache;
        const CompileResult res =
            compileClustered(*loop, machine, options);
        ASSERT_TRUE(res.success);
        EXPECT_TRUE(res.hintStale);
        EXPECT_FALSE(res.hintUsed);
        EXPECT_EQ(res.ii, cold.ii);
        // The cold outcome it fell back to is stored.
        EXPECT_EQ(cache.totals().entries, 1);
    }
}

TEST(CompileCacheTest, HintsPersistAcrossReopen)
{
    const std::string dir = scratchDir("cache_hint_log");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    const CacheKey key = makeCacheKey(graph, machine, options, true);

    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        cache.storeHint(key, {5, 3, 2});
        cache.storeHint(key, {4, 3, 1}); // last write wins
    }
    CompileCache reopened(dir, CacheMode::ReadOnly);
    WarmStartHint hint;
    ASSERT_TRUE(reopened.hint(key, hint));
    EXPECT_EQ(hint.ii, 4);
    EXPECT_EQ(hint.mii, 3);
    EXPECT_EQ(hint.rotation, 1);
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

TEST(CompileCacheTest, ScrubRepairsTornHintLogAtEveryBoundary)
{
    const std::string dir = scratchDir("cache_scrub_hints");
    std::vector<CacheKey> keys;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        for (int i = 0; i < 3; ++i) {
            CacheKey key;
            key.loopHash = 100 + i;
            key.machineHash = 7;
            key.optionsHash = 9;
            key.hintSalt = static_cast<uint64_t>(i);
            keys.push_back(key);
            WarmStartHint hint;
            hint.ii = 4 + i;
            hint.mii = 3;
            hint.rotation = i;
            cache.storeHint(key, hint);
        }
    }
    const fs::path hintPath = fs::path(dir) / "hints.log";
    const std::string valid = slurp(hintPath);
    ASSERT_FALSE(valid.empty());
    ASSERT_EQ(valid.back(), '\n');
    std::vector<size_t> newlines;
    for (size_t i = 0; i < valid.size(); ++i)
        if (valid[i] == '\n')
            newlines.push_back(i);
    ASSERT_EQ(newlines.size(), 3u);

    for (size_t length = 0; length < valid.size(); ++length) {
        spill(hintPath, valid, length);
        const ScrubReport report = scrubCacheDir(dir);
        ASSERT_TRUE(report.error.empty()) << report.error;
        long fullLines = 0;
        for (const size_t pos : newlines)
            fullLines += pos < length ? 1 : 0;
        const bool tornTail =
            length > 0 && valid[length - 1] != '\n';
        ASSERT_EQ(report.hintLinesKept, fullLines)
            << "length " << length;
        ASSERT_EQ(report.hintLinesDropped, tornTail ? 1 : 0)
            << "length " << length;
        ASSERT_EQ(report.hintLogRepaired, tornTail)
            << "length " << length;
        if (tornTail) {
            // The rewritten log is clean: scrubbing again drops
            // nothing and keeps the same lines.
            const ScrubReport again = scrubCacheDir(dir);
            ASSERT_EQ(again.hintLinesKept, fullLines);
            ASSERT_EQ(again.hintLinesDropped, 0);
        }
        fs::remove_all(fs::path(dir) / "corrupt");
    }

    // With the intact log back, every stored hint is served.
    spill(hintPath, valid, valid.size());
    CompileCache cache(dir, CacheMode::ReadWrite);
    for (size_t i = 0; i < keys.size(); ++i) {
        WarmStartHint hint;
        ASSERT_TRUE(cache.hint(keys[i], hint)) << "key " << i;
        EXPECT_EQ(hint.ii, 4 + static_cast<int>(i));
    }
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
