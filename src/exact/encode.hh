/**
 * @file
 * CNF encoding of the joint cluster-assignment + modulo-scheduling
 * decision problem at a fixed II, for the exact backend.
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
 * reports them as unsupported.
 *
 * Completeness over the horizon: any feasible schedule can be shifted
 * (uniformly, preserving rows and dependences) so its earliest start
 * is 0, and a stage-compression argument bounds the latest start by
 * soundHorizon(ii); a SAT answer at any horizon is a real schedule,
 * and an UNSAT answer at soundHorizon(ii) is a certificate that no
 * schedule exists at this II. fastHorizon(ii) is a smaller window
 * that finds almost every satisfiable instance cheaply; the solver
 * escalates to the sound horizon only to certify UNSAT.
 */

#ifndef CAMS_EXACT_ENCODE_HH
#define CAMS_EXACT_ENCODE_HH

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "assign/assignment.hh"
#include "exact/sat.hh"
#include "graph/adjacency.hh"
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
     * solver. Returns false only for unsupported inputs (see
     * supported()); a trivially infeasible II yields an
     * already-contradictory solver instead.
     */
    bool encode(int ii, int horizon, SatSolver &solver,
                std::string *why = nullptr);

    /**
     * Reads the model of the last encoded instance back into an
     * annotated loop (copies spliced annotatePartition-style) and its
     * schedule. Valid only after that solver returned Sat.
     */
    void decode(const SatSolver &solver, AnnotatedLoop &loop,
                Schedule &schedule) const;

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

    /** One usage literal of (pool, row), implied by all of @p conds. */
    void usage(SatSolver &solver, PoolId pool, int row,
               std::initializer_list<SatLit> conds);

    /** Sinz sequential at-most-k over the literals. */
    void atMostK(SatSolver &solver, const SatLit *lits, int n, int k);

    int decodeStart(const SatSolver &solver, const SatVar *order) const;

    const Dfg &graph_;
    const ResourceModel &model_;
    int numClusters_ = 0;

    // II-independent facts, computed once.
    Adjacency adjacency_;
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
    std::vector<SatVar> cluster_;
    std::vector<SatVar> order_;
    std::vector<SatVar> copyActive_; ///< [v]
    std::vector<SatVar> copyNeed_;   ///< [v * C + dst]
    std::vector<SatVar> copyOrder_;
    std::vector<SatVar> row_;
    std::vector<SatVar> copyRow_;
    std::vector<SatVar> samePair_;   ///< [u * n + w]
    std::vector<char> dstMark_;      ///< [c], copy destination universe

    /** Usage literals in emission order, tagged pool * II + row. */
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
