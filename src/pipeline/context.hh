/**
 * @file
 * Per-loop analysis context shared across an II escalation.
 *
 * The driver probes candidate IIs from MII upward, and both phases
 * historically recomputed every analysis at every probe: the assigner
 * re-derived SCCs, priority sets, timing and the swing order per
 * rotation per II, and the schedulers re-ran the full RecMII binary
 * search per call. Almost all of that is II-invariant. A LoopContext
 * owns one loop graph's facts and computes each exactly once:
 *
 *   II-invariant: SCC decomposition, priority node sets, per-SCC and
 *   whole-graph RecMII, per-node resource requests, the structural
 *   assignability check.
 *
 *   II-dependent, solved from the previous probe's state:
 *   TimeAnalysis (via TimingSolver's cached acyclic seeds and
 *   pre-sorted edges), the swing order at the current II, and
 *   feasibility at an II (a single positive-cycle test per recurrence
 *   instead of the binary search, with monotone bounds remembered
 *   across probes).
 *
 * Neighbor lists are not cached here: the Dfg's own CSR index, laid
 * out once by DfgBuilder, serves them as spans to the assigner, the
 * schedulers and the exact encoder alike.
 *
 * Every cached fact is a unique fixpoint or a deterministic function
 * result, equal to what the standalone analyses (findSccs,
 * analyzeTiming, recMii) return for the same graph;
 * tests/context_test.cc compares them, and tests/order_test.cc checks
 * the cached swing order against a reference that rescans the edge
 * list. The context is the only way
 * the assigner and the schedulers read these facts: a caller that
 * passes none gets a call-local context, and the golden digests of
 * tests/golden_test.cc pin the outputs.
 *
 * A context is single-threaded, like the compile it serves; batch
 * parallelism stays at the loop level.
 */

#ifndef CAMS_PIPELINE_CONTEXT_HH
#define CAMS_PIPELINE_CONTEXT_HH

#include <optional>
#include <string>
#include <vector>

#include "assign/assignment.hh"
#include "graph/analysis.hh"
#include "graph/dfg.hh"
#include "graph/scc.hh"
#include "mrt/mrt.hh"
#include "order/scc_sets.hh"

namespace cams
{

/** Lazily-computed, cached analyses of one loop graph. */
class LoopContext
{
  public:
    /** Binds the context to a graph (not owned; must outlive it). */
    explicit LoopContext(const Dfg &graph);

    const Dfg &graph() const { return *graph_; }

    /** SCC decomposition (computed once). */
    const SccInfo &sccs();

    /** The Section 4.1 priority sets (computed once). */
    const NodeSets &prioritySets();

    /**
     * Whole-graph RecMII. Derived from the priority sets' per-SCC
     * values, so the binary searches run once for both consumers.
     */
    int recMii();

    /**
     * True when the graph has no positive cycle at this II, i.e.
     * ii >= RecMII. Uses one Bellman-Ford pass per recurrence instead
     * of the full RecMII search, and remembers the monotone bounds:
     * once an II is known feasible every larger II answers from
     * cache, and vice versa.
     */
    bool schedulableAt(int ii);

    /** Timing analysis at the II (reuses prior solves; see TimingSolver). */
    const TimeAnalysis &timing(int ii);

    /** Swing order at the II (cached for the current II). */
    const std::vector<NodeId> &swingOrder(int ii);

    /**
     * Per-node resource requests of an annotated loop (II-invariant).
     * Keyed by the (loop, model) identities; a different pair
     * recomputes, so one context serves one loop/machine at a time.
     */
    const std::vector<std::vector<PoolId>> &requests(
        const AnnotatedLoop &loop, const ResourceModel &model);

    /**
     * The assigner's input preconditions (well-formed, no copies,
     * machine can execute every opcode), checked once per machine;
     * cams_fatal with the assigner's exact diagnostics on violation.
     */
    void checkAssignable(const MachineDesc &machine);

    /**
     * A cleared MRT of the given length, reusing one table across II
     * probes and restarts instead of reconstructing it.
     */
    Mrt &scratchMrt(const ResourceModel &model, int ii);

    /** Queries answered from cache / computed fresh. */
    long hits() const { return hits_; }
    long misses() const { return misses_; }

  private:
    const Dfg *graph_;

    std::optional<SccInfo> sccs_;
    std::optional<NodeSets> sets_;
    std::optional<int> recMii_;
    std::optional<TimingSolver> timingSolver_;

    /** Feasibility bounds: monotone in II. */
    int knownSchedulable_ = -1;   ///< smallest II proven feasible
    int knownInfeasible_ = -1;    ///< largest II proven infeasible

    int orderIi_ = -1;
    std::vector<NodeId> order_;

    const AnnotatedLoop *requestsLoop_ = nullptr;
    const ResourceModel *requestsModel_ = nullptr;
    std::vector<std::vector<PoolId>> requests_;

    std::string assignableMachine_;
    Mrt scratch_;

    long hits_ = 0;
    long misses_ = 0;
};

} // namespace cams

#endif // CAMS_PIPELINE_CONTEXT_HH
