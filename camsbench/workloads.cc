#include "workloads.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "alloc_counter.hh"
#include "exact/encode.hh"
#include "exact/exact.hh"
#include "exact/sat.hh"
#include "machine/configs.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/context.hh"
#include "pipeline/driver.hh"
#include "pipeline/serve/proto.hh"
#include "pipeline/serve/server.hh"
#include "pipeline/serve/stream.hh"
#include "sched/mii.hh"
#include "sched/verifier.hh"
#include "sim/compare.hh"
#include "support/random.hh"
#include "support/socket.hh"
#include "workload/suite.hh"

namespace camsbench
{

namespace
{

using namespace cams;
namespace fs = std::filesystem;

/** The paper's suite size; the corpus is always the default suite. */
constexpr int suiteLoops = 1327;

/**
 * Set-ups per run; setup_s is their median. A rebuild-2c set-up
 * writes the whole suite into a fresh on-disk cache, so it repeats
 * fewer times.
 */
constexpr int setupRepeats = 5;
constexpr int cachedSetupRepeats = 3;

/**
 * The serve-layer sample of rebuild-2c's traced run: two connections
 * with eight requests in flight each, so both workers stay busy, as
 * when a build system runs compiles in parallel.
 */
constexpr int serveConnections = 2;
constexpr size_t serveInFlight = 8;
constexpr int serveWorkers = 2;
constexpr const char *serveTenant = "bench";

/** Alternating compile/replay passes over the loops a warm cache misses. */
constexpr int missReplayPasses = 20;

/** Wall budget the server gives one compile (camsd's default). */
constexpr double serveCompileBudgetMs = 5000.0;

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

// ---------------------------------------------------------------
// The corpus: the paper's suite and its unified-machine IIs.

struct Corpus
{
    MachineDesc machine;
    std::vector<Dfg> loops;
    std::vector<int> unifiedIi; ///< 0 when the unified compile failed
};

Corpus
makeCorpus(const MachineDesc &machine)
{
    Corpus corpus;
    corpus.machine = machine;
    corpus.loops = buildSuite(suiteLoops, defaultSuiteSeed);
    const MachineDesc unified = machine.unifiedEquivalent();
    corpus.unifiedIi.reserve(corpus.loops.size());
    for (const Dfg &loop : corpus.loops) {
        const CompileResult r = compileUnified(loop, unified);
        corpus.unifiedIi.push_back(r.success ? r.ii : 0);
    }
    return corpus;
}

/**
 * The order the passes submit the corpus in: every pass draws a fresh
 * permutation from the seed, so one run averages over many orders.
 */
class PassOrder
{
  public:
    PassOrder(size_t n, uint64_t seed) : rng_(seed ^ 0x6f72646572ULL)
    {
        order_.resize(n);
        std::iota(order_.begin(), order_.end(), 0);
    }

    /** Draws the next pass's permutation. */
    const std::vector<int> &next()
    {
        rng_.shuffle(order_);
        return order_;
    }

    /** The permutation drawn last. */
    const std::vector<int> &current() const { return order_; }

  private:
    Rng rng_;
    std::vector<int> order_;
};

/**
 * A result's serialized image with the wall-clock phase timings
 * zeroed: every other byte must agree between two compiles of one
 * loop, served, cached or direct.
 */
std::string
canonicalBytes(const CompileResult &result)
{
    CompileResult copy = result;
    copy.phaseMs = PhaseTimes{};
    ByteWriter writer;
    writeCompileResult(writer, copy);
    return writer.take();
}

/**
 * The schedule oracle: the independent verifier and the cycle-level
 * simulator, which shares no code with the verifier, must both accept
 * a successful result.
 */
bool
scheduleHolds(const Dfg &original, const CompileResult &result,
              const MachineDesc &machine, std::string &why)
{
    if (!result.success)
        return true;
    if (!verifySchedule(result.loop, ResourceModel(machine),
                        result.schedule, &why)) {
        why = "verifier: " + why;
        return false;
    }
    const EquivalenceReport eq = checkEquivalence(
        original, result.loop, result.schedule, machine);
    if (!eq.equivalent) {
        why = "simulator: " +
              (eq.mismatches.empty() ? std::string("not equivalent")
                                     : eq.mismatches.front());
        return false;
    }
    return true;
}

/** Counts a program-reported failure of one compile. */
void
chargeCompile(const CompileResult &result, Outcomes &outcomes,
              const std::string &what)
{
    if (!result.success) {
        outcomes.programFailure(what + ": " +
                                failureKindName(result.failure));
    } else if (result.degraded != DegradeLevel::None) {
        outcomes.programFailure(what + ": degraded to " +
                                degradeLevelName(result.degraded));
    }
}

/** The paper's quality figures over one pass of the corpus. */
struct Quality
{
    long loops = 0;
    long matched = 0; ///< clustered II == unified II
    long excess = 0;  ///< sum of clustered II - unified II
    long copies = 0;
    long proven = 0; ///< at MII, UNSAT-certified or exact-found

    void add(const CompileResult &r, int unifiedIi)
    {
        ++loops;
        if (!r.success || unifiedIi == 0)
            return;
        copies += r.copies;
        matched += r.ii == unifiedIi ? 1 : 0;
        excess += r.ii - unifiedIi;
        if (r.ii == r.mii.mii || r.exact.certified || r.exact.tightened)
            ++proven;
    }
};

/**
 * Appends the end-to-end metrics of a run: throughput and latency as
 * medians over the run's windows, the quality of the corpus, set-up
 * time and peak memory.
 */
void
addEndToEnd(RunReport &report, const std::vector<Window> &windows,
            const Quality &q, double setupS)
{
    const auto w = windowMedians(windows);
    if (!w) {
        throw std::runtime_error(
            "a window has too few latency samples for its p99");
    }
    const double n = static_cast<double>(std::max(1L, q.loops));
    report.metrics = {
        {"loops_per_s", w->perSecond, "loops/s"},
        {"latency_p50_ms", w->p50, "ms"},
        {"latency_p99_ms", w->p99, "ms"},
        {"ii_match_frac", static_cast<double>(q.matched) / n, "ratio"},
        {"ii_excess_total", static_cast<double>(q.excess), "cycles"},
        {"copies_per_loop", static_cast<double>(q.copies) / n, "ops"},
        {"proven_optimal_frac", static_cast<double>(q.proven) / n,
         "ratio"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    report.log.push_back(
        "latency: medians over " + std::to_string(w->windows) +
        " windows, " + std::to_string(w->samples) +
        " samples, each window's p99 with at least " +
        std::to_string(w->minBeyondP99) + " samples beyond it");
    std::string rates = "window rates (ops/s):";
    for (const Window &win : windows)
        rates += " " + std::to_string(static_cast<long>(
                           static_cast<double>(win.latencyMs.size()) /
                           win.seconds));
    report.log.push_back(rates);
    report.log.push_back(
        "quality: " + std::to_string(q.matched) + "/" +
        std::to_string(q.loops) + " loops at the unified II, excess " +
        std::to_string(q.excess) + " cycles, " +
        std::to_string(q.proven) + " proven optimal");
}

/** Runs @p setup setupRepeats times; @return the median seconds. */
template <typename Setup>
double
medianSetupSeconds(Setup &&setup)
{
    std::vector<double> times;
    for (int k = 0; k < setupRepeats; ++k) {
        const int64_t start = nowNs();
        setup();
        times.push_back(seconds(nowNs() - start));
    }
    return median(times);
}

// ---------------------------------------------------------------
// The traced layer replay: compileClustered's Fig. 5 order, one public
// entry point per span.

/** Work and allocation counters of the replayed layers. */
struct LayerCounts
{
    long loops = 0;
    long iiAttempts = 0;
    long orderAllocs = 0;
    long assignCalls = 0;
    long assignFails = 0;
    long evictions = 0;
    long assignWordScans = 0;
    long assignAllocs = 0;
    double routeMs = 0.0; ///< program-reported phaseMs.routeMs share
    long schedCalls = 0;
    long schedFails = 0;
    long schedAllocs = 0;
    long exactProbes = 0;
    long exactConflicts = 0;
    long exactUseful = 0;
    long exactAllocs = 0;
    long splitProbes = 0;
    long splitClauses = 0;
    long ctxHits = 0;   ///< program-reported LoopContext counters
    long ctxMisses = 0;
    long compiles = 0;  ///< untraced compileClustered calls counted
    long compileAllocs = 0;
};

/** What the replay concluded for one loop. */
struct ReplayOutcome
{
    bool success = false;
    int ii = 0;
    int attempts = 0;
    AnnotatedLoop loop;
    Schedule schedule;
    ExactOutcome exact = ExactOutcome::NotRun;
    int probes = 0;
    bool splitDrift = false; ///< encode/solve/decode replay disagreed
};

class LayerReplay
{
  public:
    LayerReplay(SpanRecorder &recorder, LayerCounts &counts)
        : rec_(recorder), counts_(counts)
    {
    }

    /** Counters advance only while this is set (spans always do). */
    bool counting = true;

    ReplayOutcome run(const Dfg &graph, const MachineDesc &machine,
                      const CompileOptions &options, int64_t id);

  private:
    /** Runs @p f inside a span, counting its allocations. */
    template <typename F>
    auto layer(const char *name, int64_t id, int parent, long *allocs,
               F &&f)
    {
        const ScopedSpan span(rec_, name, id, parent);
        const long before = threadAllocations();
        auto value = f();
        if (counting && allocs != nullptr)
            *allocs += threadAllocations() - before;
        return value;
    }

    ExactVerdict splitProbe(const Dfg &graph, const ResourceModel &model,
                            int ii, const ExactOptions &options,
                            int64_t id);

    SpanRecorder &rec_;
    LayerCounts &counts_;
};

ReplayOutcome
LayerReplay::run(const Dfg &graph, const MachineDesc &machine,
                 const CompileOptions &options, int64_t id)
{
    ReplayOutcome out;
    std::vector<int> probedIis;
    std::vector<ExactVerdict> verdicts;
    const int root = rec_.open("loop", id, -1);
    LoopContext ctx(graph);
    const MiiInfo mii = layer("mii", id, root, nullptr, [&] {
        return computeMii(graph, machine.unifiedEquivalent(),
                          ctx.recMii());
    });
    const ResourceModel model(machine);
    const ClusterAssigner assigner(model, options.assign);
    const auto scheduler = makeScheduler(options.scheduler);
    const int limit = mii.mii * 4 + options.iiSlack;
    for (int ii = mii.mii; ii <= limit && !out.success; ++ii) {
        ++out.attempts;
        layer("order", id, root, &counts_.orderAllocs, [&] {
            ctx.prioritySets();
            ctx.timing(ii);
            return ctx.swingOrder(ii).size();
        });
        AssignResult assignment =
            layer("assign", id, root, &counts_.assignAllocs,
                  [&] { return assigner.run(graph, ii, &ctx); });
        if (counting) {
            ++counts_.assignCalls;
            counts_.assignFails += assignment.success ? 0 : 1;
            counts_.evictions += assignment.evictions;
            counts_.assignWordScans += assignment.wordScans;
            counts_.routeMs += assignment.routeMillis;
        }
        if (!assignment.success)
            continue;
        Schedule schedule;
        const bool scheduled =
            layer("sched", id, root, &counts_.schedAllocs, [&] {
                LoopContext schedCtx(assignment.loop.graph);
                return scheduler->schedule(assignment.loop, model, ii,
                                           schedule, &schedCtx);
            });
        if (counting) {
            ++counts_.schedCalls;
            counts_.schedFails += scheduled ? 0 : 1;
        }
        if (!scheduled)
            continue;
        const bool verified = layer("verify", id, root, nullptr, [&] {
            return verifySchedule(assignment.loop, model, schedule);
        });
        if (!verified)
            continue;
        out.success = true;
        out.ii = ii;
        out.loop = std::move(assignment.loop);
        out.schedule = std::move(schedule);
    }

    // Race: the exact arm probes every II below the heuristic one,
    // ascending; the first SAT answer wins, an unbroken UNSAT run
    // certifies the heuristic II.
    if (options.backend == CompileBackend::Race && out.success) {
        out.exact = ExactOutcome::Unsat;
        int probesLeft = options.exact.maxProbes > 0
                             ? options.exact.maxProbes
                             : std::numeric_limits<int>::max();
        const int heuristicIi = out.ii;
        for (int ii = mii.mii; ii < heuristicIi; ++ii) {
            if (probesLeft-- <= 0) {
                out.exact = ExactOutcome::Timeout;
                break;
            }
            ExactDecision decision =
                layer("exact", id, root, &counts_.exactAllocs, [&] {
                    return exactDecideAtIi(graph, model, ii,
                                           options.exact);
                });
            ++out.probes;
            probedIis.push_back(ii);
            verdicts.push_back(decision.verdict);
            if (counting) {
                ++counts_.exactProbes;
                counts_.exactConflicts += decision.conflicts;
                counts_.exactUseful +=
                    decision.verdict == ExactVerdict::Sat ||
                            decision.verdict == ExactVerdict::Unsat
                        ? 1
                        : 0;
            }
            if (decision.verdict == ExactVerdict::Sat) {
                out.exact = ExactOutcome::Sat;
                out.ii = ii;
                out.loop = std::move(decision.loop);
                out.schedule = std::move(decision.schedule);
                break;
            }
            if (decision.verdict != ExactVerdict::Unsat) {
                out.exact = decision.verdict == ExactVerdict::Budget
                                ? ExactOutcome::Timeout
                                : ExactOutcome::Unsupported;
                break;
            }
        }
    }
    rec_.close(root);

    // The encode/solve/decode split replays each probe a second time,
    // as its own root, so the layer sum above stays the program's.
    for (size_t k = 0; k < probedIis.size(); ++k) {
        const ExactVerdict verdict =
            splitProbe(graph, model, probedIis[k], options.exact, id);
        out.splitDrift = out.splitDrift || verdict != verdicts[k];
    }
    if (counting) {
        ++counts_.loops;
        counts_.iiAttempts += out.attempts;
    }
    return out;
}

ExactVerdict
LayerReplay::splitProbe(const Dfg &graph, const ResourceModel &model,
                        int ii, const ExactOptions &options, int64_t id)
{
    const ScopedSpan root(rec_, "exact_split", id, -1);
    if (counting)
        ++counts_.splitProbes;
    if (graph.numNodes() > options.nodeLimit)
        return ExactVerdict::Unsupported;
    ExactEncoder encoder = layer("encode", id, root.index(), nullptr,
                                 [&] { return ExactEncoder(graph, model); });
    if (!encoder.supported(nullptr))
        return ExactVerdict::Unsupported;
    const int fast = encoder.fastHorizon(ii);
    const int sound = encoder.soundHorizon(ii);
    if (fast > options.horizonLimit)
        return ExactVerdict::Unsupported;
    int horizon = fast;
    while (true) {
        SatSolver solver;
        const bool encoded = layer("encode", id, root.index(), nullptr,
                                   [&] {
                                       return encoder.encode(ii, horizon,
                                                             solver);
                                   });
        if (!encoded)
            return ExactVerdict::Unsupported;
        if (counting)
            counts_.splitClauses += solver.numClauses();
        SatBudget budget;
        budget.maxConflicts = options.conflictBudget;
        budget.timeBudgetMs = options.timeBudgetMs;
        const SatStatus status =
            layer("solve", id, root.index(), nullptr,
                  [&] { return solver.solve(budget); });
        if (status == SatStatus::Sat) {
            return layer("decode", id, root.index(), nullptr, [&] {
                AnnotatedLoop loop;
                Schedule schedule;
                encoder.decode(solver, loop, schedule);
                const bool ok = loop.validate(model.machine(), nullptr) &&
                                verifySchedule(loop, model, schedule);
                return ok ? ExactVerdict::Sat : ExactVerdict::Budget;
            });
        }
        if (status == SatStatus::Unknown)
            return ExactVerdict::Budget;
        if (horizon >= sound)
            return ExactVerdict::Unsat;
        if (sound > options.horizonLimit)
            return ExactVerdict::Budget;
        horizon = sound;
    }
}

/** Replay fidelity: the replay must reach the program's answer. */
bool
replayMatches(const ReplayOutcome &r, const CompileResult &p,
              std::string &why)
{
    auto fail = [&](const std::string &what) {
        why = what;
        return false;
    };
    if (r.success != p.success || r.ii != p.ii)
        return fail("II " + std::to_string(r.ii) + " vs program " +
                    std::to_string(p.ii));
    if (r.attempts != p.attempts)
        return fail("II attempts differ");
    if (r.exact != p.exact.outcome || r.probes != p.exact.probes)
        return fail("exact verdict differs");
    if (r.splitDrift)
        return fail("encode/solve/decode replay verdict differs");
    if (!r.success)
        return true;
    if (packDfg(r.loop.graph) != packDfg(p.loop.graph))
        return fail("annotated graph differs");
    if (r.loop.placement.size() != p.loop.placement.size())
        return fail("placement count differs");
    for (size_t v = 0; v < r.loop.placement.size(); ++v) {
        if (r.loop.placement[v].cluster != p.loop.placement[v].cluster ||
            r.loop.placement[v].copyDsts != p.loop.placement[v].copyDsts)
            return fail("placement differs");
    }
    if (r.schedule.ii != p.schedule.ii ||
        r.schedule.startCycle != p.schedule.startCycle)
        return fail("schedule differs");
    return true;
}

/** Per-loop layer figures from the spans of the replay. */
struct LayerTimes
{
    std::map<std::string, int64_t> selfNs;
    double loopRootNs = 0.0; ///< summed durations of "loop" roots
};

LayerTimes
layerTimes(const std::vector<Span> &spans)
{
    LayerTimes t;
    t.selfNs = selfTimeByNameNs(spans);
    for (const Span &s : spans) {
        if (s.parent < 0 && std::string(s.name) == "loop")
            t.loopRootNs += static_cast<double>(s.endNs - s.startNs);
    }
    return t;
}

/** Layers whose self times add up to one compile. */
const char *const compileLayers[] = {"mii",   "order",  "assign",
                                     "sched", "verify", "exact"};

/**
 * The compile-layer metrics. @p replays is the number of replayed
 * loops behind @p times, and @p compileUsPerLoop the untraced
 * compileClustered time per loop measured in the same process.
 */
void
addCompileLayers(std::vector<Metric> &m, const LayerCounts &c,
                 const LayerTimes &times, long replays,
                 double compileUsPerLoop)
{
    const double loops = static_cast<double>(std::max(1L, c.loops));
    const double timed = static_cast<double>(std::max(1L, replays));
    auto perLoopUs = [&](const char *name) {
        const auto it = times.selfNs.find(name);
        return it == times.selfNs.end()
                   ? 0.0
                   : static_cast<double>(it->second) / 1000.0 / timed;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double probes = static_cast<double>(c.exactProbes);
    const double split = static_cast<double>(c.splitProbes);
    const double splitTimed =
        ratio(split * timed, loops); // split probes over all passes
    auto perSplitUs = [&](const char *name) {
        const auto it = times.selfNs.find(name);
        return it == times.selfNs.end() || splitTimed == 0.0
                   ? 0.0
                   : static_cast<double>(it->second) / 1000.0 /
                         splitTimed;
    };
    double layerSum = 0.0;
    for (const char *name : compileLayers)
        layerSum += perLoopUs(name);
    const double replayUs = times.loopRootNs / 1000.0 / timed;

    auto add = [&](const char *name, double value, const char *unit) {
        m.push_back({name, value, unit});
    };
    add("mii.us_per_loop", perLoopUs("mii"), "us");
    add("order.us_per_loop", perLoopUs("order"), "us");
    add("order.allocs_per_loop", c.orderAllocs / loops, "count");
    add("assign.us_per_loop", perLoopUs("assign"), "us");
    add("assign.calls_per_loop", c.assignCalls / loops, "count");
    add("assign.fail_ratio",
        ratio(static_cast<double>(c.assignFails),
              static_cast<double>(c.assignCalls)),
        "ratio");
    add("assign.evictions_per_loop", c.evictions / loops, "count");
    add("assign.mrt_word_scans_per_loop", c.assignWordScans / loops,
        "count");
    add("assign.allocs_per_loop", c.assignAllocs / loops, "count");
    add("assign.route_us_per_loop", c.routeMs * 1000.0 / loops, "us");
    add("ctx.hit_ratio",
        ratio(static_cast<double>(c.ctxHits),
              static_cast<double>(c.ctxHits + c.ctxMisses)),
        "ratio");
    add("sched.us_per_loop", perLoopUs("sched"), "us");
    add("sched.calls_per_loop", c.schedCalls / loops, "count");
    add("sched.fail_ratio",
        ratio(static_cast<double>(c.schedFails),
              static_cast<double>(c.schedCalls)),
        "ratio");
    add("sched.allocs_per_loop", c.schedAllocs / loops, "count");
    add("verify.us_per_loop", perLoopUs("verify"), "us");
    add("exact.us_per_loop", perLoopUs("exact"), "us");
    add("exact.encode_us_per_probe", perSplitUs("encode"), "us");
    add("exact.solve_us_per_probe", perSplitUs("solve"), "us");
    add("exact.decode_us_per_probe", perSplitUs("decode"), "us");
    add("exact.probes_per_loop", probes / loops, "count");
    add("exact.conflicts_per_loop", c.exactConflicts / loops, "count");
    add("exact.clauses_per_probe", ratio(c.splitClauses, split),
        "count");
    add("exact.useful_ratio", ratio(c.exactUseful, probes), "ratio");
    add("exact.allocs_per_probe", ratio(c.exactAllocs, probes),
        "count");
    add("driver.ii_attempts_per_loop", c.iiAttempts / loops, "count");
    add("driver.allocs_per_loop",
        ratio(static_cast<double>(c.compileAllocs),
              static_cast<double>(c.compiles)),
        "count");
    add("driver.compile_us_per_loop", compileUsPerLoop, "us");
    add("driver.unattributed_us_per_loop", compileUsPerLoop - layerSum,
        "us");
    add("trace.overhead_frac",
        ratio(replayUs - compileUsPerLoop, compileUsPerLoop), "ratio");
}

/** Cache-layer figures of the traced cache replay. */
struct CacheFigures
{
    double keyNs = 0, lookupHitNs = 0, lookupMissNs = 0, storeNs = 0;
    long keys = 0, hits = 0, misses = 0, stores = 0;
    long collisionMisses = 0;
    double entryBytes = 0.0;
};

/** Serve-layer figures of the traced closed loop. */
struct ServeFigures
{
    std::vector<double> queueMs, workerMs, transportMs;
    double codecUs = 0.0; ///< summed over requests
    long requests = 0;
    long requestBytes = 0, replyBytes = 0;
};

void
addServeLayers(std::vector<Metric> &m, const CacheFigures &c,
               const ServeFigures &s)
{
    auto mean = [](double total, long n) {
        return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    auto p50 = [](const std::vector<double> &v) {
        const auto p = percentile(v, 0.50);
        return p ? p->value : 0.0;
    };
    m.push_back({"cache.key_us", mean(c.keyNs, c.keys) / 1000.0, "us"});
    m.push_back({"cache.lookup_hit_us",
                 mean(c.lookupHitNs, c.hits) / 1000.0, "us"});
    m.push_back({"cache.lookup_miss_us",
                 mean(c.lookupMissNs, c.misses) / 1000.0, "us"});
    m.push_back(
        {"cache.store_us", mean(c.storeNs, c.stores) / 1000.0, "us"});
    m.push_back({"cache.hit_ratio",
                 mean(static_cast<double>(c.hits), c.hits + c.misses),
                 "ratio"});
    m.push_back({"cache.collision_misses",
                 static_cast<double>(c.collisionMisses), "count"});
    m.push_back({"cache.entry_bytes", c.entryBytes, "bytes"});
    m.push_back({"serve.queue_ms_p50", p50(s.queueMs), "ms"});
    m.push_back({"serve.worker_ms_p50", p50(s.workerMs), "ms"});
    m.push_back(
        {"serve.client_codec_us", mean(s.codecUs, s.requests), "us"});
    m.push_back({"serve.transport_ms_p50", p50(s.transportMs), "ms"});
    m.push_back({"serve.request_bytes",
                 mean(static_cast<double>(s.requestBytes), s.requests),
                 "bytes"});
    m.push_back({"serve.reply_bytes",
                 mean(static_cast<double>(s.replyBytes), s.requests),
                 "bytes"});
}

/** Writes the spans of a traced run next to the other run files. */
void
writeSpans(const RunConfig &config, const SpanRecorder &rec,
           RunReport &report)
{
    const std::string path =
        config.workDir + "/" + config.workload + ".spans.tsv";
    if (!rec.write(path))
        throw std::runtime_error("cannot write " + path);
    report.log.push_back("spans: " + std::to_string(rec.spans().size()) +
                         " written to " + path);
}

// ---------------------------------------------------------------
// The cache and serve layers: rebuild-2c and its traced run.

/** Runs whose cache directories are kept (about 25 MB each). */
constexpr size_t keptRuns = 40;

/**
 * Creates the directory a run keeps its on-disk caches in. Deleting
 * thousands of cache entries slows the file system down for minutes
 * (the freed blocks are discarded), which would leak into the timings
 * of the runs that follow. So no run deletes its own caches: finished
 * run directories stay under the work directory, and only the oldest
 * beyond keptRuns are removed, here, before anything is measured.
 */
std::string
makeRunDir(const std::string &workDir)
{
    std::vector<std::pair<fs::file_time_type, fs::path>> old;
    for (const auto &entry : fs::directory_iterator(workDir)) {
        if (entry.is_directory() &&
            entry.path().filename().string().rfind("cache-run-", 0) == 0)
            old.emplace_back(entry.last_write_time(), entry.path());
    }
    std::sort(old.begin(), old.end());
    for (size_t k = 0; k + keptRuns <= old.size(); ++k)
        fs::remove_all(old[k].second);
    const std::string dir = workDir + "/cache-run-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(nowNs());
    fs::create_directories(dir);
    return dir;
}

/** A terminal reply as the client saw it. */
struct Reply
{
    ServerMsg msg;
    CompileResult result;
    bool decoded = false; ///< a Result whose image parsed
    int64_t latencyNs = 0;
    int64_t codecNs = 0; ///< encodeSubmit + decodeServerMsg + readCompileResult
    long requestBytes = 0;
};

/**
 * A minimal pipelining client over the public framing and codec
 * entry points, so the benchmark can time encode, transport and
 * decode apart.
 */
class BenchClient
{
  public:
    bool connect(const std::string &path, std::string &error)
    {
        fd_ = connectUnix(path, error);
        if (!fd_.valid())
            return false;
        HelloMsg hello;
        hello.tenant = serveTenant;
        std::string payload;
        ServerMsg ack;
        if (!stream_.writeFrame(fd_.fd(), encodeHello(hello), error) ||
            !stream_.readFrame(fd_.fd(), payload, serveMaxFrameBytes,
                               readTimeoutMs, error))
            return false;
        if (!decodeServerMsg(payload, ack) ||
            ack.type != ServeMsgType::HelloAck) {
            error = "handshake refused";
            return false;
        }
        return true;
    }

    /**
     * Keeps up to @p inFlight requests outstanding until next(msg,
     * loopId) stops supplying them, handing every terminal reply to
     * done(reply, loopId). With a recorder, each request is a
     * "request" span whose children are the client's codec and send
     * steps. @return false on a transport or protocol error.
     */
    template <typename Next, typename Done>
    bool pipeline(size_t inFlight, Next &&next, Done &&done,
                  SpanRecorder *rec, std::string &error)
    {
        struct Outstanding
        {
            int64_t loopId = 0;
            int64_t startNs = 0;
            int root = -1;
            int64_t codecNs = 0;
            long requestBytes = 0;
        };
        std::map<uint64_t, Outstanding> pending;
        auto span = [&](const char *name, int64_t from, int64_t to,
                        const Outstanding &o, uint64_t id) {
            if (rec)
                rec->add({name, from, to, o.root,
                          static_cast<int64_t>(id)});
        };
        bool more = true;
        auto fill = [&] {
            while (more && pending.size() < inFlight) {
                SubmitMsg msg;
                Outstanding o;
                if (!next(msg, o.loopId)) {
                    more = false;
                    break;
                }
                o.startNs = nowNs();
                if (rec)
                    o.root = rec->add({"request", o.startNs, o.startNs, -1,
                                       static_cast<int64_t>(msg.id)});
                const std::string payload = encodeSubmit(msg);
                const int64_t encoded = nowNs();
                o.codecNs = encoded - o.startNs;
                o.requestBytes = static_cast<long>(payload.size());
                span("encode", o.startNs, encoded, o, msg.id);
                const bool sent =
                    stream_.writeFrame(fd_.fd(), payload, error);
                span("send", encoded, nowNs(), o, msg.id);
                if (!sent)
                    return false;
                pending.emplace(msg.id, o);
            }
            return true;
        };
        if (!fill())
            return false;
        std::string frame;
        while (!pending.empty()) {
            if (!stream_.readFrame(fd_.fd(), frame, serveMaxFrameBytes,
                                   readTimeoutMs, error))
                return false;
            Reply reply;
            const int64_t t0 = nowNs();
            if (!decodeServerMsg(frame, reply.msg)) {
                error = "malformed server message";
                return false;
            }
            const int64_t t1 = nowNs();
            const auto it = pending.find(reply.msg.id);
            if (it == pending.end()) {
                error = "reply to an unknown request";
                return false;
            }
            Outstanding &o = it->second;
            o.codecNs += t1 - t0;
            span("decode", t0, t1, o, reply.msg.id);
            if (reply.msg.type == ServeMsgType::Accepted)
                continue;
            if (reply.msg.type == ServeMsgType::Result) {
                ByteReader reader(reply.msg.resultBytes);
                reply.decoded = readCompileResult(reader, reply.result) &&
                                reader.atEnd();
                const int64_t t2 = nowNs();
                o.codecNs += t2 - t1;
                span("read_result", t1, t2, o, reply.msg.id);
            }
            reply.latencyNs = nowNs() - o.startNs;
            reply.codecNs = o.codecNs;
            reply.requestBytes = o.requestBytes;
            if (rec)
                rec->close(o.root);
            const int64_t loopId = o.loopId;
            pending.erase(it);
            done(reply, loopId);
            if (!fill())
                return false;
        }
        return true;
    }

  private:
    static constexpr double readTimeoutMs = 30000.0;
    SocketFd fd_;
    ServeStream stream_;
};

/** Everything one connection observed. */
struct ConnLog
{
    /** Digest of the canonical image served per loop id. */
    std::map<int64_t, uint64_t> served;
    Outcomes outcomes;
    ServeFigures figures;
    SpanRecorder rec;
    std::string error; ///< transport failure that ended the loop
};

/** Records one reply into @p log: failure accounting and oracle keys. */
void
recordReply(ConnLog &log, int64_t loopId, const Reply &reply,
            const std::string &what)
{
    log.outcomes.attempt();
    if (reply.msg.type != ServeMsgType::Result || !reply.decoded) {
        log.outcomes.programFailure(
            what + ": reply " + serveMsgTypeName(reply.msg.type));
        return;
    }
    chargeCompile(reply.result, log.outcomes, what);
    const uint64_t digest = hashBytes(canonicalBytes(reply.result));
    const auto [it, fresh] = log.served.try_emplace(loopId, digest);
    if (!fresh && it->second != digest) {
        log.outcomes.oracleMismatch(what +
                                    ": two serves of one loop differ");
    }
}

/**
 * One connection's thread body: connects and pipelines requests;
 * any failure, thrown or reported, ends up in log.error.
 */
template <typename Next, typename Done>
void
runClient(ConnLog &log, const std::string &socketPath, Next &&next,
          Done &&done, SpanRecorder *rec)
{
    try {
        BenchClient client;
        if (client.connect(socketPath, log.error))
            client.pipeline(serveInFlight, next, done, rec, log.error);
    } catch (const std::exception &err) {
        log.error = err.what();
    }
}

SubmitMsg
makeSubmit(uint64_t id, const std::string &dfgBytes,
           const std::string &machineBytes)
{
    SubmitMsg msg;
    msg.id = id;
    msg.dfgBytes = dfgBytes;
    msg.machineBytes = machineBytes;
    return msg;
}

/** The options the server compiles with, minus the cache pointer. */
CompileOptions
serverOptions()
{
    CompileOptions options;
    options.timeBudgetMs = serveCompileBudgetMs;
    options.cacheSalt = hashBytes(serveTenant);
    return options;
}

/**
 * Samples the serve layer: an in-process CamsServer with serveWorkers
 * workers over a fresh cache stores the suite (one untraced pass),
 * then serves passes of @p order to serveConnections connections with
 * serveInFlight requests each for @p budgetS seconds, with the client
 * steps as spans. Every loop served must come back byte-identical to
 * a direct compile, which the verifier and the simulator then check.
 */
void
serveSample(const RunConfig &config, const std::string &runDir,
            const Corpus &corpus, const std::vector<int> &order,
            double budgetS, SpanRecorder &rec, ServeFigures &figures,
            Outcomes &outcomes)
{
    ServeConfig sc;
    sc.socketPath = config.workDir + "/serve.sock";
    sc.workers = serveWorkers;
    sc.cacheRoot = runDir + "/serve-cache";
    sc.cacheMode = CacheMode::ReadWrite;
    sc.compileBudgetMs = serveCompileBudgetMs;
    CamsServer server(sc);
    std::string error;
    if (!server.start(error))
        throw std::runtime_error("server start: " + error);

    const std::string machineBytes = packMachine(corpus.machine);
    std::vector<std::string> loopBytes;
    for (const Dfg &g : corpus.loops)
        loopBytes.push_back(packDfg(g));
    ConnLog logs[serveConnections];
    // One pass stores the suite; then timed passes until the deadline.
    auto drive = [&](bool store, int64_t deadline) {
        std::vector<std::thread> threads;
        for (int c = 0; c < serveConnections; ++c) {
            threads.emplace_back([&, c] {
                ConnLog &log = logs[c];
                size_t k = c;
                uint64_t nextId = 1;
                auto next = [&](SubmitMsg &msg, int64_t &loopId) {
                    if (store ? k >= order.size() : nowNs() >= deadline)
                        return false;
                    loopId = order[k % order.size()];
                    k += serveConnections;
                    msg = makeSubmit(nextId++, loopBytes[loopId],
                                     machineBytes);
                    return true;
                };
                auto done = [&](const Reply &reply, int64_t loopId) {
                    if (!store) {
                        ServeFigures &f = log.figures;
                        const double latencyMs =
                            static_cast<double>(reply.latencyNs) * 1e-6;
                        const double codecMs =
                            static_cast<double>(reply.codecNs) * 1e-6;
                        f.queueMs.push_back(reply.msg.queueMs);
                        f.workerMs.push_back(reply.msg.compileMs);
                        f.transportMs.push_back(latencyMs -
                                                reply.msg.queueMs -
                                                reply.msg.compileMs -
                                                codecMs);
                        f.codecUs += codecMs * 1000.0;
                        ++f.requests;
                        f.requestBytes += reply.requestBytes;
                        f.replyBytes += static_cast<long>(
                            reply.msg.resultBytes.size());
                    }
                    recordReply(log, loopId, reply,
                                corpus.loops[loopId].name());
                };
                runClient(log, sc.socketPath, next, done,
                          store ? nullptr : &log.rec);
            });
        }
        for (std::thread &t : threads)
            t.join();
        for (const ConnLog &log : logs) {
            if (!log.error.empty())
                throw std::runtime_error("serve: " + log.error);
        }
    };
    drive(true, 0);
    drive(false, nowNs() + static_cast<int64_t>(budgetS * 1e9));
    server.stop();
    fs::remove(sc.socketPath);

    std::map<int64_t, uint64_t> distinct;
    for (ConnLog &log : logs) {
        outcomes.merge(log.outcomes);
        for (const auto &[id, digest] : log.served) {
            const auto [it, fresh] = distinct.emplace(id, digest);
            if (!fresh && it->second != digest)
                outcomes.oracleMismatch(
                    "a loop was served two different results");
        }
        const int offset = static_cast<int>(rec.spans().size());
        for (Span span : log.rec.spans()) {
            if (span.parent >= 0)
                span.parent += offset;
            rec.add(span);
        }
        ServeFigures &f = log.figures;
        figures.queueMs.insert(figures.queueMs.end(), f.queueMs.begin(),
                               f.queueMs.end());
        figures.workerMs.insert(figures.workerMs.end(),
                                f.workerMs.begin(), f.workerMs.end());
        figures.transportMs.insert(figures.transportMs.end(),
                                   f.transportMs.begin(),
                                   f.transportMs.end());
        figures.codecUs += f.codecUs;
        figures.requests += f.requests;
        figures.requestBytes += f.requestBytes;
        figures.replyBytes += f.replyBytes;
    }
    const CompileOptions direct = serverOptions();
    for (const auto &[id, digest] : distinct) {
        const Dfg &g = corpus.loops[id];
        const CompileResult result =
            compileClustered(g, corpus.machine, direct);
        std::string why;
        if (hashBytes(canonicalBytes(result)) != digest)
            outcomes.oracleMismatch(g.name() +
                                    ": served result differs from a "
                                    "direct compile");
        else if (!scheduleHolds(g, result, corpus.machine, why))
            outcomes.oracleMismatch(g.name() + ": " + why);
    }
}

/**
 * Replays a rebuild's cache traffic through makeCacheKey and
 * CompileCache::lookup/store in a cache of its own: the suite is
 * stored, then passes of @p order are looked up for @p budgetS
 * seconds (at least one pass). The loops that miss a warm cache are
 * compiled and stored as compileClustered would; their compiles are then
 * timed untraced and replayed layer by layer in alternating passes,
 * as on the other batch workloads. @return the replays made.
 */
long
replayCache(const std::string &runDir, const Corpus &corpus,
            PassOrder &order, double budgetS, SpanRecorder &rec,
            CacheFigures &figures, LayerReplay &replay,
            LayerCounts &counts, double &compileUs, Outcomes &outcomes)
{
    CompileCache cache(runDir + "/replay-cache", CacheMode::ReadWrite);
    const CompileOptions options;
    const MachineDesc &machine = corpus.machine;
    int64_t compileNs = 0;

    auto key = [&](const Dfg &g, int64_t id) {
        const ScopedSpan span(rec, "cache_key", id, -1);
        const int64_t t0 = nowNs();
        const CacheKey k = makeCacheKey(g, machine, options, true);
        figures.keyNs += static_cast<double>(nowNs() - t0);
        ++figures.keys;
        return k;
    };
    auto lookup = [&](const CacheKey &k, const Dfg &g, int64_t id,
                      bool count) {
        const ScopedSpan span(rec, "cache_lookup", id, -1);
        CompileResult out;
        const int64_t t0 = nowNs();
        const bool hit = cache.lookup(k, g, machine, out);
        const double ns = static_cast<double>(nowNs() - t0);
        if (count) {
            (hit ? figures.lookupHitNs : figures.lookupMissNs) += ns;
            ++(hit ? figures.hits : figures.misses);
        }
        return hit;
    };
    auto store = [&](const CacheKey &k, const Dfg &g, int64_t id,
                     const CompileResult &r) {
        const ScopedSpan span(rec, "cache_store", id, -1);
        const int64_t t0 = nowNs();
        cache.store(k, g, machine, r);
        figures.storeNs += static_cast<double>(nowNs() - t0);
        ++figures.stores;
    };

    for (size_t i = 0; i < corpus.loops.size(); ++i) {
        const Dfg &g = corpus.loops[i];
        const CacheKey k = key(g, static_cast<int64_t>(i));
        lookup(k, g, static_cast<int64_t>(i), false);
        store(k, g, static_cast<int64_t>(i),
              compileClustered(g, machine, options));
    }

    // Only the first pass's misses are compiled and replayed: every
    // pass misses the same loops, and the counters must repeat.
    std::vector<std::pair<int, CompileResult>> missed;
    const int64_t start = nowNs();
    int passes = 0;
    do {
        for (const int idx : order.next()) {
            const Dfg &g = corpus.loops[idx];
            const CacheKey k = key(g, idx);
            if (lookup(k, g, idx, passes == 0) || passes > 0)
                continue;
            ++figures.collisionMisses;
            const long before = threadAllocations();
            const int64_t t0 = nowNs();
            CompileResult program = compileClustered(g, machine, options);
            compileNs += nowNs() - t0;
            counts.compileAllocs += threadAllocations() - before;
            ++counts.compiles;
            counts.ctxHits += program.ctxHits;
            counts.ctxMisses += program.ctxMisses;
            store(k, g, idx, program);
            missed.emplace_back(idx, std::move(program));
        }
        ++passes;
    } while (seconds(nowNs() - start) < budgetS);

    compileNs = 0;
    long timed = 0;
    long replays = 0;
    for (int pass = 0; pass < missReplayPasses; ++pass) {
        for (const auto &[idx, program] : missed) {
            const int64_t t0 = nowNs();
            compileClustered(corpus.loops[idx], machine, options);
            compileNs += nowNs() - t0;
            ++timed;
        }
        replay.counting = pass == 0;
        for (const auto &[idx, program] : missed) {
            const Dfg &g = corpus.loops[idx];
            const ReplayOutcome r = replay.run(g, machine, options, idx);
            ++replays;
            std::string why;
            if (pass == 0 && !replayMatches(r, program, why))
                outcomes.oracleMismatch(g.name() + ": replay drift: " +
                                        why);
        }
    }
    const CompileCache::Totals totals = cache.totals();
    figures.entryBytes =
        totals.entries > 0 ? static_cast<double>(totals.bytesOnDisk) /
                                 static_cast<double>(totals.entries)
                           : 0.0;
    compileUs = timed > 0 ? static_cast<double>(compileNs) / 1000.0 /
                                static_cast<double>(timed)
                          : 0.0;
    return replays;
}

// ---------------------------------------------------------------
// The batch workloads: compile-2c, race-4c and rebuild-2c.

struct BatchSpec
{
    MachineDesc machine;
    CompileBackend backend;

    /** Compile through an on-disk cache set-up filled (rebuild-2c). */
    bool cached = false;
};

/**
 * rebuild-2c's traced run: the cache replay for half the budget, then
 * the serve-layer sample for the other half.
 */
void
traceRebuild(const RunConfig &config, const Corpus &corpus,
             PassOrder &order, RunReport &report)
{
    const std::string runDir = makeRunDir(config.workDir);
    SpanRecorder rec;
    LayerCounts counts;
    LayerReplay replay(rec, counts);
    CacheFigures cacheFigures;
    double compileUs = 0.0;
    const long replays =
        replayCache(runDir, corpus, order, config.seconds / 2.0, rec,
                    cacheFigures, replay, counts, compileUs,
                    report.outcomes);
    addCompileLayers(report.metrics, counts, layerTimes(rec.spans()),
                     replays, compileUs);
    ServeFigures serveFigures;
    serveSample(config, runDir, corpus, order.current(),
                config.seconds / 2.0, rec, serveFigures, report.outcomes);
    addServeLayers(report.metrics, cacheFigures, serveFigures);
    report.log.push_back(
        "cache replay: " + std::to_string(cacheFigures.hits) + " of " +
        std::to_string(cacheFigures.hits + cacheFigures.misses) +
        " first-pass lookups hit; " +
        std::to_string(cacheFigures.collisionMisses) +
        " suite loops miss a warm cache (canonical-hash collisions)");
    report.log.push_back("serve sample: " +
                         std::to_string(serveFigures.requests) +
                         " requests");
    writeSpans(config, rec, report);
}

/**
 * Compiles whole passes of @p order until @p budgetS has elapsed,
 * handing every result to @p onCompile with its wall time and the
 * heap allocations it made, and calling @p afterPass after each pass.
 */
template <typename OnCompile, typename AfterPass>
int
compilePasses(const Corpus &corpus, PassOrder &order,
              const CompileOptions &options, double budgetS,
              OnCompile &&onCompile, AfterPass &&afterPass)
{
    const int64_t start = nowNs();
    int passes = 0;
    do {
        for (const int idx : order.next()) {
            const long allocs = threadAllocations();
            const int64_t t0 = nowNs();
            CompileResult r = compileClustered(corpus.loops[idx],
                                               corpus.machine, options);
            const int64_t t1 = nowNs();
            onCompile(passes, idx, std::move(r), t1 - t0,
                      threadAllocations() - allocs);
        }
        afterPass(passes);
        ++passes;
    } while (seconds(nowNs() - start) < budgetS);
    return passes;
}

RunReport
runBatch(const BatchSpec &spec, const RunConfig &config)
{
    RunReport report;
    Corpus corpus;
    CompileOptions options;
    options.backend = spec.backend;
    if (spec.cached && config.trace) {
        corpus = makeCorpus(spec.machine);
        PassOrder order(corpus.loops.size(), config.seed);
        traceRebuild(config, corpus, order, report);
        return report;
    }
    // rebuild-2c: every set-up fills a fresh cache via compileClustered,
    // and the run compiles against the last one.
    std::unique_ptr<CompileCache> cache;
    double setupS = 0.0;
    if (spec.cached) {
        const std::string runDir = makeRunDir(config.workDir);
        std::vector<double> times;
        for (int k = 0; k < cachedSetupRepeats; ++k) {
            const int64_t t0 = nowNs();
            corpus = makeCorpus(spec.machine);
            cache = std::make_unique<CompileCache>(
                runDir + "/cache-" + std::to_string(k),
                CacheMode::ReadWrite);
            CompileOptions fill = options;
            fill.cache = cache.get();
            for (const Dfg &g : corpus.loops)
                compileClustered(g, corpus.machine, fill);
            times.push_back(seconds(nowNs() - t0));
        }
        setupS = median(times);
        options.cache = cache.get();
    } else {
        setupS = medianSetupSeconds(
            [&] { corpus = makeCorpus(spec.machine); });
    }
    PassOrder order(corpus.loops.size(), config.seed);

    std::vector<CompileResult> firstPass(corpus.loops.size());
    std::vector<uint64_t> digests(corpus.loops.size(), 0);
    std::vector<Window> windows; // one per pass
    long compiled = 0;
    long fromCache = 0;
    int64_t busyNs = 0;
    LayerCounts counts;
    SpanRecorder rec;
    LayerReplay replay(rec, counts);
    Outcomes &outcomes = report.outcomes;
    // Warm-up: first-touch allocations and lazy set-up, untimed.
    for (size_t k = 0; k < std::min<size_t>(100, corpus.loops.size());
         ++k)
        compileClustered(corpus.loops[k], corpus.machine, options);

    // Whole passes until the budget is spent. In a traced run every
    // compile pass is followed by a replay pass over the same order,
    // so the untraced and the traced figures are taken alternately,
    // each with the same (cold) cache state between loops.
    const int passes = compilePasses(
        corpus, order, options, config.seconds,
        [&](int pass, int idx, CompileResult r, int64_t ns,
            long allocs) {
            if (static_cast<int>(windows.size()) <= pass)
                windows.emplace_back();
            windows[pass].latencyMs.push_back(
                static_cast<double>(ns) * 1e-6);
            windows[pass].seconds += seconds(ns);
            ++compiled;
            fromCache += r.fromCache ? 1 : 0;
            busyNs += ns;
            outcomes.attempt();
            const std::string &name = corpus.loops[idx].name();
            chargeCompile(r, outcomes, name);
            const uint64_t digest = hashBytes(canonicalBytes(r));
            if (pass > 0) {
                if (digest != digests[idx])
                    outcomes.oracleMismatch(
                        name + ": result changed between passes");
                return;
            }
            counts.compileAllocs += allocs;
            ++counts.compiles;
            counts.ctxHits += r.ctxHits;
            counts.ctxMisses += r.ctxMisses;
            digests[idx] = digest;
            firstPass[idx] = std::move(r);
        },
        [&](int pass) {
            if (!config.trace)
                return;
            replay.counting = pass == 0;
            for (const int idx : order.current()) {
                const ReplayOutcome out = replay.run(
                    corpus.loops[idx], corpus.machine, options, idx);
                std::string why;
                if (pass == 0 && !replayMatches(out, firstPass[idx], why))
                    outcomes.oracleMismatch(corpus.loops[idx].name() +
                                            ": replay drift: " + why);
            }
        });

    // The oracles, outside the timed region: every distinct result
    // (later passes were byte-compared against these above). A result
    // the cache served must also equal a direct compile byte for byte.
    Quality quality;
    CompileOptions direct = options;
    direct.cache = nullptr;
    for (size_t i = 0; i < corpus.loops.size(); ++i) {
        const Dfg &g = corpus.loops[i];
        std::string why;
        if (!scheduleHolds(g, firstPass[i], corpus.machine, why))
            outcomes.oracleMismatch(g.name() + ": " + why);
        if (spec.cached &&
            hashBytes(canonicalBytes(compileClustered(
                g, corpus.machine, direct))) != digests[i])
            outcomes.oracleMismatch(g.name() +
                                    ": cached result differs from a "
                                    "direct compile");
        quality.add(firstPass[i], corpus.unifiedIi[i]);
    }
    if (spec.cached) {
        report.log.push_back(std::to_string(fromCache) + " of " +
                             std::to_string(compiled) +
                             " compiles served from the cache");
    }
    report.log.push_back(std::to_string(passes) + " passes of " +
                         std::to_string(corpus.loops.size()) + " loops on " +
                         corpus.machine.name + ", backend " +
                         compileBackendName(spec.backend) +
                         (config.trace ? ", each followed by a replay pass"
                                       : ""));

    if (!config.trace) {
        addEndToEnd(report, windows, quality, setupS);
        return report;
    }
    const double compileUs = static_cast<double>(busyNs) / 1000.0 /
                             static_cast<double>(compiled);
    addCompileLayers(report.metrics, counts, layerTimes(rec.spans()),
                     compiled, compileUs);
    addServeLayers(report.metrics, CacheFigures{}, ServeFigures{});
    writeSpans(config, rec, report);
    return report;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "compile-2c", "race-4c", "rebuild-2c"};
    return names;
}

RunReport
runWorkload(const RunConfig &config)
{
    if (config.workload == "compile-2c")
        return runBatch({busedGpMachine(2, 2, 1), CompileBackend::Heuristic},
                        config);
    if (config.workload == "race-4c")
        return runBatch({busedGpMachine(4, 4, 2), CompileBackend::Race},
                        config);
    return runBatch({busedGpMachine(2, 2, 1), CompileBackend::Heuristic,
                     /*cached=*/true},
                    config);
}

} // namespace camsbench
