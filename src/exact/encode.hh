/**
 * @file
 * CNF encoding of the joint cluster-assignment + modulo-scheduling
 * decision problem at a fixed II, for the exact arm.
 *
 * Variables, per original node v of the loop:
 *  - cluster vars c(v,k): exactly-one over the clusters whose
 *    function-unit pools can execute v;
 *  - order (ladder) time vars o(v,t) == "start(v) >= t" for
 *    t in [1, horizon), chained o(v,t+1) -> o(v,t). The start time is
 *    the number of true order vars, so dependence edges become the
 *    linear clauses ~o(u,t) \/ o(w, t+lag) -- no quadratic
 *    at-most-one over time slots;
 *  - row indicators row(v,r), r in [0, II), implied by "start = t"
 *    (one-directional: a spurious true row only wastes capacity,
 *    which preserves both soundness and completeness);
 *  - per-(cluster, row) usage literals feeding one sequential-counter
 *    (Sinz) at-most-K per resource pool and MRT row: function units
 *    for the node's FuClass, and for inter-cluster transfers the
 *    source read port, the shared bus, and each destination's write
 *    port.
 *
 * Copies mirror assign/exhaustive.cc annotatePartition exactly (one
 * broadcast copy per producer with cross-cluster consumers; edge
 * v->copy keeps v's latency at distance 0, copy->consumer is latency
 * 1 at the original distance), so a decoded model round-trips through
 * AnnotatedLoop::validate and the independent verifier unchanged.
 * Point-to-point (multi-hop) machines are not encoded; the caller
 * reports them as unsupported. The encoder reads neighbors from the
 * loop's own Dfg rows and keeps no second copy of the graph.
 *
 * Completeness over the horizon: any feasible schedule can be shifted
 * (uniformly, preserving rows and dependences) so its earliest start
 * is 0, and a stage-compression argument bounds the latest start by
 * soundHorizon(ii); a SAT answer at any horizon is a real schedule,
 * and an UNSAT answer at soundHorizon(ii) is a certificate that no
 * schedule exists at this II. fastHorizon(ii) is a smaller window
 * that finds almost every satisfiable instance cheaply; the solver
 * escalates to the sound horizon only to certify UNSAT.
 *
 * Time-free resource-count relaxation (horizon timeFree): the same
 * emission path with every time variable left out -- the cluster
 * exactly-one and value-precedence clauses, the copy-active, copy-
 * need and same-cluster forcing clauses, and the usage literals
 * without their row literal, under one at-most-(capacity x II) per
 * pool. It is implied by the timed encoding at every horizon: a
 * schedule at II has a cluster assignment and an annotatePartition
 * copy set, and each op and copy claims one slot of each of its
 * pools in one of the II MRT rows (mrt.hh), so no pool is claimed
 * more than capacity x II times. UNSAT here is therefore a
 * certificate that no schedule exists at this II, whatever the
 * horizon; SAT says nothing. It is the paper's resource argument --
 * per-cluster function units, plus the bus and port slots that
 * inter-cluster copies take -- at a fraction of the timed instance's
 * size.
 */

#ifndef CAMS_EXACT_ENCODE_HH
#define CAMS_EXACT_ENCODE_HH

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "assign/assignment.hh"
#include "exact/sat.hh"
#include "graph/dfg.hh"
#include "mrt/mrt.hh"
#include "sched/schedule.hh"

namespace cams
{

/** Builds and decodes the per-II CNF instances of one loop. */
class ExactEncoder
{
  public:
    ExactEncoder(const Dfg &graph, const ResourceModel &model);

    /** The horizon of the time-free resource-count relaxation. */
    static constexpr int timeFree = 0;

    /**
     * Static support check (II-independent): bused interconnect,
     * every node executable on some cluster, no pre-existing copy
     * opcodes. False fills @p why with a stable slug.
     */
    bool supported(std::string *why) const;

    /**
     * Horizon that preserves completeness: UNSAT at this window is a
     * true infeasibility certificate for the II.
     */
    int soundHorizon(int ii) const;

    /** Cheaper window for the initial SAT hunt (never exceeds
     *  soundHorizon). UNSAT here is *not* a certificate. */
    int fastHorizon(int ii) const;

    /**
     * Emits the CNF for one (ii, horizon) instance into a fresh
     * solver; horizon timeFree emits the resource-count relaxation.
     * Returns false only for unsupported inputs (see supported()); a
     * trivially infeasible II yields an already-contradictory solver
     * instead.
     */
    bool encode(int ii, int horizon, SatSolver &solver,
                std::string *why = nullptr);

    /**
     * Reads the model of the last encoded instance back into an
     * annotated loop (copies spliced annotatePartition-style) and its
     * schedule. Valid only after that solver returned Sat on a
     * timed instance.
     */
    void decode(const SatSolver &solver, AnnotatedLoop &loop,
                Schedule &schedule) const;

    /**
     * The cluster of every node in the model of the last encoded
     * instance, timed or time-free. Valid only after that solver
     * returned Sat.
     */
    std::vector<ClusterId> partition(const SatSolver &solver) const;

    /**
     * Seeds the saved phases of the last encoded instance's cluster
     * variables with @p clusterOf (one eligible cluster per node), so
     * the solver's first descent tries that partition. No clause
     * changes: the instance has exactly the models it had before.
     * Copy variables need no seed; propagation forces them from the
     * cluster choice.
     */
    void hintPartition(SatSolver &solver,
                       const std::vector<ClusterId> &clusterOf) const;

  private:
    SatLit clusterLit(NodeId v, ClusterId c) const;
    SatLit orderLit(NodeId v, int t) const;     ///< start(v) >= t

    /** Node v's order (or copy order) chain: [t], t >= 1. */
    const SatVar *orderOf(NodeId v) const;
    const SatVar *copyOrderOf(NodeId v) const;

    /** The order chain of a start time; vars for t in [1, horizon). */
    void makeOrderChain(SatSolver &solver, SatVar *slots, int asap);

    /** Row indicators of an order chain: start = t implies row t % II. */
    void makeRows(SatSolver &solver, const SatVar *slots, SatVar *rows);

    /** t(to) >= t(from) + lag whenever @p cond is true. */
    void addPrecedence(SatSolver &solver, const SatVar *fromOrder,
                       const SatVar *toOrder, int lag, SatLit cond);

    /** Same-cluster indicator of a producer/consumer pair (memoized). */
    SatVar sameVar(SatSolver &solver, NodeId u, NodeId w);

    /**
     * The usage literals of @p pool implied by all of @p conds: one
     * per MRT row r, also implied by rows[r], or one for the whole
     * pool in a time-free instance (@p rows unused).
     */
    void usage(SatSolver &solver, PoolId pool, const SatVar *rows,
               std::initializer_list<SatLit> conds);

    /** Sinz sequential at-most-k over the literals. */
    void atMostK(SatSolver &solver, const SatLit *lits, int n, int k);

    int decodeStart(const SatSolver &solver, const SatVar *order) const;

    const Dfg &graph_;
    const ResourceModel &model_;
    int numClusters_ = 0;

    // II-independent facts, computed once.
    std::vector<std::vector<ClusterId>> eligible_;
    std::vector<int> asap_;       ///< d=0 longest-path lower bounds
    std::vector<char> copyCapable_; ///< has a non-self successor
    bool identicalClusters_ = false;
    bool positiveZeroCycle_ = false; ///< infeasible at every II
    int maxLatency_ = 1;

    // Per-encode state, rebuilt by every encode call in tables whose
    // storage the next call reuses. Flat, row-major: [v * C + c],
    // [v * horizon + t], [v * II + r]; -1 = no variable.
    int ii_ = 0;
    int horizon_ = 0;
    int rowsPerPool_ = 0; ///< usage buckets per pool: II, or 1 time-free
    std::vector<SatVar> cluster_;
    std::vector<SatVar> order_;
    std::vector<SatVar> copyActive_; ///< [v]
    std::vector<SatVar> copyNeed_;   ///< [v * C + dst]
    std::vector<SatVar> copyOrder_;
    std::vector<SatVar> row_;
    std::vector<SatVar> copyRow_;
    std::vector<SatVar> samePair_;   ///< [u * n + w]
    std::vector<char> dstMark_;      ///< [c], copy destination universe

    /** Usage literals in emission order, tagged
     *  pool * rowsPerPool_ + row. */
    std::vector<std::pair<int, SatLit>> usage_;
    /** The same literals grouped per (pool, row), emission order kept. */
    std::vector<int> bucketStart_;
    std::vector<int> bucketFill_;
    std::vector<SatLit> bucketLits_;
    std::vector<SatVar> counter_;    ///< atMostK registers
    std::vector<SatLit> clause_;     ///< the clause being built
};

} // namespace cams

#endif // CAMS_EXACT_ENCODE_HH
