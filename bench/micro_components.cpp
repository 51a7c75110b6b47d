/**
 * @file
 * google-benchmark microbenchmarks of the compiler's building blocks:
 * SCC decomposition, RecMII, the order analyses and the swing sweep
 * (timed apart), MRT operations, cluster assignment and the two
 * schedulers, over generated loops of several sizes; the byte hash
 * behind cache keys and checksums; and, over the suite loops, the
 * compile cache's hit path (key derivation, lookup), the schedule
 * verifier and the exact arm's per-II decision.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <unistd.h>

#include "assign/assigner.hh"
#include "exact/exact.hh"
#include "frontend/parser.hh"
#include "graph/recmii.hh"
#include "graph/scc.hh"
#include "machine/configs.hh"
#include "order/swing_order.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/cache/hash.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "sched/verifier.hh"
#include "sim/compare.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace
{

using namespace cams;

Dfg
loopOfSize(int target_nodes)
{
    // Deterministically pick a seed whose loop lands near the target.
    GeneratorParams params;
    params.minNodes = target_nodes;
    params.maxNodes = target_nodes;
    return generateLoop(42, params);
}

void
BM_SccDecomposition(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(findSccs(graph));
}
BENCHMARK(BM_SccDecomposition)->Arg(16)->Arg(64)->Arg(161);

void
BM_RecMii(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(recMii(graph));
}
BENCHMARK(BM_RecMii)->Arg(16)->Arg(64)->Arg(161);

/** The order layer's analyses: SCCs, priority sets, timing. */
void
BM_OrderAnalyses(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const int ii = recMii(graph);
    for (auto _ : state) {
        const SccInfo sccs = findSccs(graph);
        benchmark::DoNotOptimize(buildPrioritySets(graph, sccs));
        benchmark::DoNotOptimize(analyzeTiming(graph, ii));
    }
}
BENCHMARK(BM_OrderAnalyses)->Arg(16)->Arg(64)->Arg(161);

/** The swing sweep alone, over analyses computed once. */
void
BM_SwingOrder(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const int ii = recMii(graph);
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    const TimeAnalysis timing = analyzeTiming(graph, ii);
    for (auto _ : state)
        benchmark::DoNotOptimize(swingOrder(graph, sets, timing));
}
BENCHMARK(BM_SwingOrder)->Arg(16)->Arg(64)->Arg(161);

void
BM_MrtReserveRelease(benchmark::State &state)
{
    const ResourceModel model(busedGpMachine(4, 4, 2));
    Mrt mrt(model, static_cast<int>(state.range(0)));
    const auto request = model.copyRequest(0, {1, 2});
    for (auto _ : state) {
        auto res = mrt.reserve(request);
        benchmark::DoNotOptimize(res);
        if (res)
            mrt.release(*res);
    }
}
BENCHMARK(BM_MrtReserveRelease)->Arg(4)->Arg(16)->Arg(64);

void
BM_ClusterAssignment(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const ResourceModel model(machine);
    const MiiInfo mii = computeMii(graph, machine.unifiedEquivalent());
    const ClusterAssigner assigner(model);
    for (auto _ : state) {
        // Assign at a comfortable II so the benchmark measures the
        // normal path, not failure handling.
        benchmark::DoNotOptimize(assigner.run(graph, mii.mii + 2));
    }
}
BENCHMARK(BM_ClusterAssignment)->Arg(16)->Arg(64)->Arg(161);

void
BM_CompileClusteredSwing(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileClustered(graph, machine));
}
BENCHMARK(BM_CompileClusteredSwing)->Arg(16)->Arg(64)->Arg(161);

void
BM_CompileClusteredIms(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    options.scheduler = SchedulerKind::Iterative;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compileClustered(graph, machine, options));
    }
}
BENCHMARK(BM_CompileClusteredIms)->Arg(16)->Arg(64)->Arg(161);

void
BM_FrontendParse(benchmark::State &state)
{
    const std::string source =
        "loop bench { t = (a[i-1] + a[i] + a[i+1]) / 3.0; y[i] = t; "
        "s += t * t; x[i] = z[i] * (y0 - x[i-1]); }";
    for (auto _ : state) {
        Dfg graph;
        std::string error;
        benchmark::DoNotOptimize(parseLoopSource(source, graph, error));
    }
}
BENCHMARK(BM_FrontendParse);

void
BM_VliwSimulation(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    if (!result.success) {
        state.SkipWithError("compilation failed");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(checkEquivalence(
            graph, result.loop, result.schedule, machine, 8));
    }
}
BENCHMARK(BM_VliwSimulation)->Arg(16)->Arg(64);

void
BM_CompileUnified(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = unifiedGpMachine(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileUnified(graph, machine));
}
BENCHMARK(BM_CompileUnified)->Arg(16)->Arg(64)->Arg(161);

/** The suite loops, built once for the cache benchmarks. */
const std::vector<Dfg> &
suiteLoops()
{
    static const std::vector<Dfg> loops = buildSuite();
    return loops;
}

/**
 * hashBytes over Arg bytes: 64 B is a small serve frame, 1.4 KB about
 * a suite loop's graph image (mean 1.2 KB), 3.5 KB about a cache entry
 * (mean 3.4 KB over a `camsc --suite 1327` cache).
 */
void
BM_HashBytes(benchmark::State &state)
{
    std::string bytes(static_cast<size_t>(state.range(0)), '\0');
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 131 + 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(hashBytes(bytes));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HashBytes)->Arg(64)->Arg(1400)->Arg(3500);

void
BM_CacheKey(benchmark::State &state)
{
    const std::vector<Dfg> &loops = suiteLoops();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileOptions options;
    size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            makeCacheKey(loops[k], machine, options, true));
        k = (k + 1) % loops.size();
    }
}
BENCHMARK(BM_CacheKey);

void
BM_CacheLookupHit(benchmark::State &state)
{
    const std::vector<Dfg> &loops = suiteLoops();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("cams-micro-cache-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        CompileCache cache(dir.string(), CacheMode::ReadWrite);
        CompileOptions options;
        options.cache = &cache;
        std::vector<CacheKey> keys;
        for (const Dfg &loop : loops) {
            compileClustered(loop, machine, options);
            keys.push_back(makeCacheKey(loop, machine, options, true));
        }
        size_t k = 0;
        for (auto _ : state) {
            CompileResult out;
            if (!cache.lookup(keys[k], loops[k], machine, out)) {
                state.SkipWithError("a suite loop missed the cache");
                break;
            }
            benchmark::DoNotOptimize(out);
            k = (k + 1) % loops.size();
        }
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheLookupHit);

/** verifySchedule on the 2c compile of each suite loop in turn: the
 *  re-verify layer of a cache hit. */
void
BM_VerifySchedule(benchmark::State &state)
{
    const std::vector<Dfg> &loops = suiteLoops();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    std::vector<CompileResult> compiled;
    for (const Dfg &loop : loops) {
        CompileResult result = compileClustered(loop, machine);
        if (result.success)
            compiled.push_back(std::move(result));
    }
    size_t k = 0;
    for (auto _ : state) {
        const CompileResult &result = compiled[k];
        const bool ok =
            verifySchedule(result.loop, model, result.schedule);
        benchmark::DoNotOptimize(ok);
        if (!ok) {
            state.SkipWithError("a compiled suite loop fails to verify");
            break;
        }
        k = (k + 1) % compiled.size();
    }
}
BENCHMARK(BM_VerifySchedule);

/**
 * One exact per-II decision (counts relaxation, then the timed ladder)
 * on a suite loop the race arm tightens on 4c-gp-4b-2p. Args: suite
 * index, II -- synth1267 (47 nodes) at II 3, and synth250 (15 nodes)
 * at II 1. Reports the solver's conflicts per decision alongside.
 */
void
BM_ExactDecide(benchmark::State &state)
{
    const Dfg &graph = suiteLoops()[state.range(0)];
    const int ii = static_cast<int>(state.range(1));
    const ResourceModel model(busedGpMachine(4, 4, 2));
    const ExactOptions options;
    long conflicts = 0;
    for (auto _ : state) {
        const ExactDecision decision =
            exactDecideAtIi(graph, model, ii, options);
        if (decision.verdict != ExactVerdict::Sat) {
            state.SkipWithError("the probe is no longer SAT");
            break;
        }
        conflicts = decision.conflicts;
        benchmark::DoNotOptimize(decision);
    }
    state.SetLabel(graph.name());
    state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_ExactDecide)
    ->Args({1267, 3})
    ->Args({250, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
