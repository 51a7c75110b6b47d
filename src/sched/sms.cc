#include "sched/sms.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "mrt/mrt.hh"
#include "pipeline/context.hh"
#include "support/logging.hh"

namespace cams
{

bool
SwingModuloScheduler::schedule(const AnnotatedLoop &loop,
                               const ResourceModel &model, int ii,
                               Schedule &out, LoopContext *ctx) const
{
    std::optional<LoopContext> local;
    if (!ctx)
        ctx = &local.emplace(loop.graph);
    const int n = loop.graph.numNodes();
    if (n == 0) {
        out.ii = ii;
        out.startCycle.clear();
        return true;
    }
    if (!ctx->schedulableAt(ii))
        return false;

    const TimeAnalysis &timing = ctx->timing(ii);
    const std::vector<NodeId> &order = ctx->swingOrder(ii);
    std::vector<int> rank(n, 0);
    for (size_t i = 0; i < order.size(); ++i)
        rank[order[i]] = static_cast<int>(i);

    // Work list in swing-order priority. The iterative variant the
    // paper uses (an "iterative version of the swing modulo
    // scheduler") ejects conflicting operations instead of failing
    // outright; a budget bounds total placements.
    //
    // The list is a rank-indexed bitmap with a moving minimum cursor:
    // pops (lowest rank first, i.e. order[r]) and ejection re-inserts
    // are allocation-free.
    const Adjacency &adj = ctx->adjacency();
    std::vector<char> pendingRank(n, 1);
    int minRank = 0;
    int npending = n;
    auto wlPop = [&]() -> NodeId {
        while (!pendingRank[minRank])
            ++minRank;
        pendingRank[minRank] = 0;
        --npending;
        return order[minRank];
    };
    auto wlInsert = [&](NodeId v) {
        const int r = rank[v];
        if (!pendingRank[r]) {
            pendingRank[r] = 1;
            ++npending;
        }
        minRank = std::min(minRank, r);
    };

    std::vector<bool> placed(n, false);
    std::vector<long> start(n, 0);
    std::vector<long> lastStart(n, std::numeric_limits<long>::min());
    std::vector<Reservation> slots(n);
    const std::vector<std::vector<PoolId>> &requests =
        ctx->requests(loop, model);

    Mrt &mrt = scratchMrt(model, ii);
    long budget = std::max<long>(32, 8L * n);
    constexpr long kNone = std::numeric_limits<long>::min();
    long slot_conflicts = 0;
    long ejections = 0;

    auto rowOf = [&](long t) {
        return static_cast<int>(((t % ii) + ii) % ii);
    };
    auto unschedule = [&](NodeId v) {
        mrt.release(slots[v]);
        placed[v] = false;
        wlInsert(v);
        ++ejections;
    };

    while (npending > 0) {
        if (budget-- <= 0) {
            traceAttempt(ii, false, slot_conflicts, ejections);
            return false;
        }
        const NodeId op = wlPop();

        // Windows anchored to the already placed neighbors.
        long early = kNone;
        long late = kNone;
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            const long bound = start[edge.node] + edge.latency -
                               static_cast<long>(ii) * edge.distance;
            early = std::max(early, bound);
        }
        for (const AdjEdge &edge : adj.outEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            const long bound = start[edge.node] - edge.latency +
                               static_cast<long>(ii) * edge.distance;
            late = (late == kNone) ? bound : std::min(late, bound);
        }

        // Window scans, as cyclic first-fit row scans (identical row
        // order to walking the cycles one by one).
        long chosen = kNone;
        if (early != kNone && late != kNone && late >= early) {
            const int width = static_cast<int>(
                std::min(late, early + ii - 1) - early + 1);
            const int fit =
                mrt.scanRows(requests[op], rowOf(early), width, 1);
            if (fit >= 0)
                chosen = early + fit;
        } else if (early != kNone && late == kNone) {
            const int fit =
                mrt.scanRows(requests[op], rowOf(early), ii, 1);
            if (fit >= 0)
                chosen = early + fit;
        } else if (early == kNone && late != kNone) {
            const int fit =
                mrt.scanRows(requests[op], rowOf(late), ii, -1);
            if (fit >= 0)
                chosen = late - fit;
        } else if (early == kNone && late == kNone) {
            const long base = timing.asap[op];
            const int fit =
                mrt.scanRows(requests[op], rowOf(base), ii, 1);
            if (fit >= 0)
                chosen = base + fit;
        }

        if (chosen == kNone) {
            // Forced placement with ejection. Never repeat the
            // previous spot so the schedule makes progress.
            ++slot_conflicts;
            long t = early != kNone
                         ? early
                         : (late != kNone
                                ? late
                                : static_cast<long>(timing.asap[op]));
            if (lastStart[op] != kNone && t <= lastStart[op])
                t = lastStart[op] + 1;
            const int row = rowOf(t);
            bool progress = true;
            while (!mrt.canReserveAt(requests[op], row) && progress) {
                progress = false;
                // Eject the lowest-priority blocking op in that row.
                NodeId victim = invalidNode;
                for (NodeId other = 0; other < n; ++other) {
                    if (!placed[other] || slots[other].row != row)
                        continue;
                    const bool shares = std::any_of(
                        requests[op].begin(), requests[op].end(),
                        [&](PoolId pool) {
                            return std::find(slots[other].pools.begin(),
                                             slots[other].pools.end(),
                                             pool) !=
                                   slots[other].pools.end();
                        });
                    if (shares && (victim == invalidNode ||
                                   rank[other] > rank[victim])) {
                        victim = other;
                    }
                }
                if (victim != invalidNode) {
                    unschedule(victim);
                    progress = true;
                }
            }
            if (!mrt.canReserveAt(requests[op], row)) {
                // The op needs more than the row can ever hold.
                traceAttempt(ii, false, slot_conflicts, ejections);
                return false;
            }
            chosen = t;
        }

        mrt.reserveAtInto(requests[op], rowOf(chosen), slots[op]);
        start[op] = chosen;
        lastStart[op] = chosen;
        placed[op] = true;

        // Eject neighbors whose dependence the new start violates.
        for (const AdjEdge &edge : adj.outEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            if (start[edge.node] <
                start[op] + edge.latency -
                    static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            if (start[op] <
                start[edge.node] + edge.latency -
                    static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
    }

    out.ii = ii;
    out.startCycle.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        out.startCycle[v] = static_cast<int>(start[v]);
    out.normalize();
    traceAttempt(ii, true, slot_conflicts, ejections);
    return true;
}

} // namespace cams
