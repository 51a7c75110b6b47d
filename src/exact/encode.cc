#include "exact/encode.hh"

#include <algorithm>
#include <utility>

#include "graph/opcode.hh"
#include "support/logging.hh"

namespace cams
{

ExactEncoder::ExactEncoder(const Dfg &graph, const ResourceModel &model)
    : graph_(graph), model_(model),
      numClusters_(model.machine().numClusters()), adjacency_(graph)
{
    const int n = graph_.numNodes();
    eligible_.resize(n);
    asap_.assign(n, 0);
    copyCapable_.assign(n, 0);

    for (NodeId v = 0; v < n; ++v) {
        const FuClass cls = opcodeFuClass(graph_.node(v).op);
        for (ClusterId c = 0; c < numClusters_; ++c) {
            if (model_.fuPool(c, cls) != invalidPool)
                eligible_[v].push_back(c);
        }
        maxLatency_ = std::max(maxLatency_, graph_.node(v).latency);
        for (const NodeId succ : adjacency_.succs(v)) {
            if (succ != v)
                copyCapable_[v] = 1;
        }
    }

    // ASAP lower bounds over intra-iteration edges. A cross-cluster
    // route can beat the edge latency (copy latency 1 right after the
    // producer), so the sound per-edge weight is the cheaper of the
    // two paths. Bellman-style relaxation; a positive-weight
    // zero-distance cycle makes the loop unschedulable at any II.
    for (int pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (const DfgEdge &e : graph_.edges()) {
            if (e.distance != 0 || e.src == e.dst)
                continue;
            const int weight = std::min(
                e.latency, graph_.node(e.src).latency + 1);
            if (asap_[e.src] + weight > asap_[e.dst]) {
                asap_[e.dst] = asap_[e.src] + weight;
                changed = true;
            }
        }
        if (!changed)
            break;
        if (pass == n)
            positiveZeroCycle_ = true;
    }

    // Fully interchangeable clusters admit value-precedence symmetry
    // breaking (cluster k is used only after k-1).
    const MachineDesc &machine = model_.machine();
    identicalClusters_ = machine.broadcast();
    for (int c = 1; c < numClusters_ && identicalClusters_; ++c) {
        const ClusterDesc &a = machine.clusters[0];
        const ClusterDesc &b = machine.clusters[c];
        identicalClusters_ = a.gpUnits == b.gpUnits &&
                             a.fsUnits == b.fsUnits &&
                             a.readPorts == b.readPorts &&
                             a.writePorts == b.writePorts;
    }
}

bool
ExactEncoder::supported(std::string *why) const
{
    if (!model_.machine().broadcast()) {
        if (why)
            *why = "point_to_point_machine";
        return false;
    }
    for (const DfgNode &node : graph_.nodes()) {
        if (opcodeFuClass(node.op) == FuClass::None) {
            if (why)
                *why = "copy_opcode_in_input";
            return false;
        }
        if (eligible_[node.id].empty()) {
            if (why)
                *why = "node_unexecutable";
            return false;
        }
    }
    return true;
}

int
ExactEncoder::soundHorizon(int ii) const
{
    // Stage-compression bound: fix the rows of any feasible schedule
    // and solve the stage difference-constraint system to its least
    // solution; every arc contributes at most 1 + ceil((lat-1)/II)
    // stages along a simple path, so starts compress below
    // (annotated nodes + slack) * II + total annotated latency.
    int copies = 0;
    int totalLat = 0;
    for (const DfgNode &node : graph_.nodes()) {
        totalLat += std::max(node.latency, 1);
        if (copyCapable_[node.id])
            ++copies;
    }
    const int annotatedNodes = graph_.numNodes() + copies;
    return totalLat + copies + (annotatedNodes + 3) * ii;
}

int
ExactEncoder::fastHorizon(int ii) const
{
    int maxEnd = 1;
    for (const DfgNode &node : graph_.nodes())
        maxEnd = std::max(maxEnd, asap_[node.id] + node.latency);
    const int fast = maxEnd + 2 * ii + maxLatency_ + 2;
    return std::min(fast, soundHorizon(ii));
}

SatLit
ExactEncoder::clusterLit(NodeId v, ClusterId c) const
{
    const SatVar var = cluster_[static_cast<size_t>(v) * numClusters_ + c];
    cams_assert(var >= 0, "no cluster var");
    return mkLit(var);
}

SatLit
ExactEncoder::orderLit(NodeId v, int t) const
{
    return mkLit(orderOf(v)[t]);
}

const SatVar *
ExactEncoder::orderOf(NodeId v) const
{
    return order_.data() + static_cast<size_t>(v) * horizon_;
}

const SatVar *
ExactEncoder::copyOrderOf(NodeId v) const
{
    return copyOrder_.data() + static_cast<size_t>(v) * horizon_;
}

void
ExactEncoder::makeOrderChain(SatSolver &solver, SatVar *slots, int asap)
{
    const int T = horizon_;
    for (int t = 1; t < T; ++t)
        slots[t] = solver.newVar();
    for (int t = 1; t + 1 < T; ++t)
        solver.addClause(~mkLit(slots[t + 1]), mkLit(slots[t]));
    if (asap >= 1)
        solver.addClause(mkLit(slots[std::min(asap, T - 1)]));
}

void
ExactEncoder::makeRows(SatSolver &solver, const SatVar *slots,
                       SatVar *rows)
{
    const int T = horizon_;
    for (int r = 0; r < ii_ && r < T; ++r)
        rows[r] = solver.newVar();
    for (int t = 0; t < T; ++t) {
        clause_.clear();
        if (t > 0)
            clause_.push_back(~mkLit(slots[t]));
        if (t + 1 < T)
            clause_.push_back(mkLit(slots[t + 1]));
        clause_.push_back(mkLit(rows[t % ii_]));
        solver.addClause(clause_);
    }
}

void
ExactEncoder::addPrecedence(SatSolver &solver, const SatVar *fromOrder,
                            const SatVar *toOrder, int lag, SatLit cond)
{
    const int T = horizon_;
    // "from >= t  ->  to >= t + lag" for every t; the order chains
    // make one clause per t sufficient. t with t+lag <= 0 is vacuous;
    // t+lag >= horizon caps `from` below t instead (and the chain
    // covers everything above).
    for (int t = 0; t < T; ++t) {
        const int target = t + lag;
        if (target <= 0)
            continue;
        clause_.clear();
        clause_.push_back(~cond);
        if (t > 0)
            clause_.push_back(~mkLit(fromOrder[t]));
        if (target >= T) {
            solver.addClause(clause_);
            break;
        }
        clause_.push_back(mkLit(toOrder[target]));
        solver.addClause(clause_);
    }
}

SatVar
ExactEncoder::sameVar(SatSolver &solver, NodeId u, NodeId w)
{
    SatVar &same =
        samePair_[static_cast<size_t>(u) * graph_.numNodes() + w];
    if (same >= 0)
        return same;
    same = solver.newVar();
    // same <-> OR_c (u on c AND w on c), via one aux per shared c.
    clause_.clear();
    clause_.push_back(~mkLit(same));
    for (const ClusterId c : eligible_[u]) {
        if (cluster_[static_cast<size_t>(w) * numClusters_ + c] < 0)
            continue;
        const SatVar both = solver.newVar();
        solver.addClause(~mkLit(both), clusterLit(u, c));
        solver.addClause(~mkLit(both), clusterLit(w, c));
        solver.addClause(~clusterLit(u, c), ~clusterLit(w, c),
                         mkLit(both));
        solver.addClause(~mkLit(both), mkLit(same));
        clause_.push_back(mkLit(both));
    }
    solver.addClause(clause_);
    return same;
}

void
ExactEncoder::usage(SatSolver &solver, PoolId pool, int row,
                    std::initializer_list<SatLit> conds)
{
    const SatVar used = solver.newVar();
    clause_.clear();
    for (const SatLit l : conds)
        clause_.push_back(~l);
    clause_.push_back(mkLit(used));
    solver.addClause(clause_);
    usage_.emplace_back(pool * ii_ + row, mkLit(used));
}

void
ExactEncoder::atMostK(SatSolver &solver, const SatLit *lits, int n,
                      int k)
{
    if (n <= k)
        return;
    if (k <= 0) {
        for (int i = 0; i < n; ++i)
            solver.addClause(~lits[i]);
        return;
    }
    // Sinz sequential counter: reg(i, j) = "at least j+1 of the
    // first i+1 literals are true", rows for all but the last lit.
    counter_.resize(static_cast<size_t>(n - 1) * k);
    for (SatVar &var : counter_)
        var = solver.newVar();
    auto reg = [&](int i, int j) {
        return mkLit(counter_[static_cast<size_t>(i) * k + j]);
    };

    solver.addClause(~lits[0], reg(0, 0));
    for (int j = 1; j < k; ++j)
        solver.addClause(~reg(0, j));
    for (int i = 1; i < n - 1; ++i) {
        solver.addClause(~lits[i], reg(i, 0));
        solver.addClause(~reg(i - 1, 0), reg(i, 0));
        for (int j = 1; j < k; ++j) {
            solver.addClause(~lits[i], ~reg(i - 1, j - 1), reg(i, j));
            solver.addClause(~reg(i - 1, j), reg(i, j));
        }
        solver.addClause(~lits[i], ~reg(i - 1, k - 1));
    }
    solver.addClause(~lits[n - 1], ~reg(n - 2, k - 1));
}

bool
ExactEncoder::encode(int ii, int horizon, SatSolver &solver,
                     std::string *why)
{
    if (!supported(why))
        return false;
    cams_assert(ii >= 1 && horizon >= 2, "degenerate exact instance");
    ii_ = ii;
    horizon_ = horizon;
    const int n = graph_.numNodes();
    const int C = numClusters_;
    const int T = horizon;
    const size_t nc = static_cast<size_t>(n) * C;
    const size_t nt = static_cast<size_t>(n) * T;
    const size_t nr = static_cast<size_t>(n) * ii;

    cluster_.assign(nc, -1);
    order_.assign(nt, -1);
    copyActive_.assign(n, -1);
    copyNeed_.assign(nc, -1);
    copyOrder_.assign(nt, -1);
    row_.assign(nr, -1);
    copyRow_.assign(nr, -1);
    samePair_.assign(static_cast<size_t>(n) * n, -1);
    dstMark_.assign(C, 0);
    usage_.clear();

    // Infeasible at any II / at this II: a contradictory instance is
    // the honest encoding (the UNSAT answer is genuine).
    if (positiveZeroCycle_) {
        solver.addClause(nullptr, 0);
        return true;
    }
    for (const DfgEdge &e : graph_.edges()) {
        if (e.src == e.dst &&
            e.latency - static_cast<long>(ii) * e.distance > 0) {
            solver.addClause(nullptr, 0);
            return true;
        }
    }

    // --- Cluster assignment: exactly-one over eligible clusters. ---
    for (NodeId v = 0; v < n; ++v) {
        clause_.clear();
        for (const ClusterId c : eligible_[v]) {
            cluster_[static_cast<size_t>(v) * C + c] = solver.newVar();
            clause_.push_back(clusterLit(v, c));
        }
        solver.addClause(clause_);
        for (size_t i = 0; i < clause_.size(); ++i)
            for (size_t j = i + 1; j < clause_.size(); ++j)
                solver.addClause(~clause_[i], ~clause_[j]);
    }

    // Value-precedence symmetry breaking on interchangeable clusters:
    // node i may sit on cluster k>0 only if some earlier node sits on
    // cluster k-1. Any placement relabels into this form, so no
    // schedule is lost -- but UNSAT proofs shrink by ~C! per loop.
    bool uniformEligibility = true;
    for (NodeId v = 0; v < n; ++v)
        uniformEligibility &=
            static_cast<int>(eligible_[v].size()) == C;
    if (identicalClusters_ && uniformEligibility && C > 1) {
        for (NodeId v = 0; v < n; ++v) {
            for (int k = 1; k < C; ++k) {
                clause_.clear();
                clause_.push_back(~clusterLit(v, k));
                for (NodeId u = 0; u < v; ++u)
                    clause_.push_back(clusterLit(u, k - 1));
                solver.addClause(clause_);
            }
        }
    }

    // --- Time: order variables with ladder chains + ASAP bounds. ---
    for (NodeId v = 0; v < n; ++v)
        makeOrderChain(solver, &order_[static_cast<size_t>(v) * T],
                       asap_[v]);

    // --- Copy machinery (annotatePartition semantics, broadcast). ---
    for (NodeId v = 0; v < n; ++v) {
        if (!copyCapable_[v])
            continue;
        copyActive_[v] = solver.newVar();
        makeOrderChain(solver, &copyOrder_[static_cast<size_t>(v) * T],
                       asap_[v] + std::max(graph_.node(v).latency, 0));
        // Destination universe: every cluster some consumer may use,
        // ascending.
        for (const NodeId succ : adjacency_.succs(v)) {
            if (succ == v)
                continue;
            for (const ClusterId c : eligible_[succ])
                dstMark_[c] = 1;
        }
        for (ClusterId d = 0; d < C; ++d) {
            if (!dstMark_[d])
                continue;
            dstMark_[d] = 0;
            SatVar &need = copyNeed_[static_cast<size_t>(v) * C + d];
            need = solver.newVar();
            solver.addClause(~mkLit(need), mkLit(copyActive_[v]));
        }
        // The copy reads v's result: issue no earlier than v + lat.
        addPrecedence(solver, orderOf(v), copyOrderOf(v),
                      graph_.node(v).latency, mkLit(copyActive_[v]));
    }

    // --- Dependence edges: timing + copy forcing. ---
    for (const DfgEdge &e : graph_.edges()) {
        if (e.src == e.dst)
            continue; // recurrence feasibility handled above
        const SatLit same = mkLit(sameVar(solver, e.src, e.dst));
        const long lag = e.latency - static_cast<long>(ii) * e.distance;
        const long crossLag = 1 - static_cast<long>(ii) * e.distance;
        const int clampedLag =
            static_cast<int>(std::clamp<long>(lag, -T, T));
        const int clampedCross =
            static_cast<int>(std::clamp<long>(crossLag, -T, T));
        // Same cluster: the original edge as-is.
        addPrecedence(solver, orderOf(e.src), orderOf(e.dst), clampedLag,
                      same);
        // Cross cluster: producer -> copy -> consumer, copy latency 1
        // at the original distance (assign/exhaustive.cc semantics).
        solver.addClause(same, mkLit(copyActive_[e.src]));
        addPrecedence(solver, copyOrderOf(e.src), orderOf(e.dst),
                      clampedCross, ~same);
        for (const ClusterId d : eligible_[e.dst]) {
            clause_.clear();
            clause_.push_back(~clusterLit(e.dst, d));
            clause_.push_back(mkLit(
                copyNeed_[static_cast<size_t>(e.src) * C + d]));
            if (cluster_[static_cast<size_t>(e.src) * C + d] >= 0)
                clause_.push_back(clusterLit(e.src, d));
            solver.addClause(clause_);
        }
    }

    // --- Kernel rows: start = t implies row t mod II. ---
    for (NodeId v = 0; v < n; ++v) {
        const size_t base = static_cast<size_t>(v) * ii;
        makeRows(solver, orderOf(v), &row_[base]);
        if (copyCapable_[v])
            makeRows(solver, copyOrderOf(v), &copyRow_[base]);
    }

    // --- Resource usage literals, grouped per (pool, row). ---
    for (NodeId v = 0; v < n; ++v) {
        const FuClass cls = opcodeFuClass(graph_.node(v).op);
        const SatVar *rows = &row_[static_cast<size_t>(v) * ii];
        const SatVar *copyRows = &copyRow_[static_cast<size_t>(v) * ii];
        for (const ClusterId c : eligible_[v]) {
            const PoolId pool = model_.fuPool(c, cls);
            for (int r = 0; r < ii && r < T; ++r)
                usage(solver, pool, r,
                      {clusterLit(v, c), mkLit(rows[r])});
        }
        if (!copyCapable_[v])
            continue;
        const SatLit active = mkLit(copyActive_[v]);
        for (const ClusterId c : eligible_[v]) {
            const PoolId read = model_.readPool(c);
            if (read == invalidPool) {
                // No read ports: this cluster cannot source a copy.
                solver.addClause(~active, ~clusterLit(v, c));
                continue;
            }
            for (int r = 0; r < ii && r < T; ++r)
                usage(solver, read, r,
                      {active, clusterLit(v, c), mkLit(copyRows[r])});
        }
        const PoolId bus = model_.busPool();
        if (bus == invalidPool) {
            solver.addClause(~active); // busless: no transfers at all
        } else {
            for (int r = 0; r < ii && r < T; ++r)
                usage(solver, bus, r, {active, mkLit(copyRows[r])});
        }
        for (ClusterId d = 0; d < C; ++d) {
            const SatVar need = copyNeed_[static_cast<size_t>(v) * C + d];
            if (need < 0)
                continue;
            const PoolId write = model_.writePool(d);
            if (write == invalidPool) {
                solver.addClause(~mkLit(need));
                continue;
            }
            for (int r = 0; r < ii && r < T; ++r)
                usage(solver, write, r,
                      {mkLit(need), mkLit(copyRows[r])});
        }
    }
    // Counting sort of the usage literals into (pool, row) buckets,
    // keeping emission order inside each bucket.
    const int buckets = model_.numPools() * ii;
    bucketStart_.assign(buckets + 1, 0);
    for (const auto &[bucket, lit] : usage_)
        ++bucketStart_[bucket + 1];
    for (int b = 0; b < buckets; ++b)
        bucketStart_[b + 1] += bucketStart_[b];
    bucketFill_.assign(bucketStart_.begin(), bucketStart_.end() - 1);
    bucketLits_.resize(usage_.size());
    for (const auto &[bucket, lit] : usage_)
        bucketLits_[bucketFill_[bucket]++] = lit;
    for (int b = 0; b < buckets; ++b) {
        atMostK(solver, bucketLits_.data() + bucketStart_[b],
                bucketStart_[b + 1] - bucketStart_[b],
                model_.capacity(b / ii));
    }

    // --- Anchor: some node starts at cycle 0. Any schedule shifts
    // uniformly (rows permute, dependences keep their slack) to meet
    // this, and it prunes the T-fold shift symmetry from the search.
    clause_.clear();
    for (NodeId v = 0; v < n; ++v)
        clause_.push_back(~orderLit(v, 1));
    solver.addClause(clause_);

    return true;
}

int
ExactEncoder::decodeStart(const SatSolver &solver,
                          const SatVar *order) const
{
    int start = 0;
    for (int t = 1; t < horizon_; ++t) {
        if (!solver.value(order[t]))
            break;
        start = t;
    }
    return start;
}

void
ExactEncoder::decode(const SatSolver &solver, AnnotatedLoop &loop,
                     Schedule &schedule) const
{
    const int n = graph_.numNodes();
    std::vector<ClusterId> clusterOf(n, invalidCluster);
    for (NodeId v = 0; v < n; ++v) {
        for (const ClusterId c : eligible_[v]) {
            if (solver.value(
                    cluster_[static_cast<size_t>(v) * numClusters_ + c])) {
                clusterOf[v] = c;
                break;
            }
        }
        cams_assert(clusterOf[v] != invalidCluster,
                    "model without a cluster choice");
    }

    // Splice copies exactly as annotatePartition does for broadcast
    // machines, so AnnotatedLoop::validate and the verifier see the
    // canonical structure.
    loop = AnnotatedLoop{};
    loop.numOriginalNodes = n;
    loop.graph.setName(graph_.name());
    for (const DfgNode &node : graph_.nodes()) {
        loop.graph.addNode(node.op, node.latency, node.name);
        loop.placement.push_back({clusterOf[node.id], {}});
    }

    schedule = Schedule{};
    schedule.ii = ii_;
    schedule.startCycle.resize(n, 0);
    for (NodeId v = 0; v < n; ++v)
        schedule.startCycle[v] = decodeStart(solver, orderOf(v));

    // serving[v * C + dst] = copy delivering v's value to dst.
    const int C = numClusters_;
    std::vector<NodeId> serving(static_cast<size_t>(n) * C, invalidNode);
    std::vector<char> reached(C);
    for (NodeId v = 0; v < n; ++v) {
        std::fill(reached.begin(), reached.end(), 0);
        for (const NodeId succ : adjacency_.succs(v)) {
            if (succ != v && clusterOf[succ] != clusterOf[v])
                reached[clusterOf[succ]] = 1;
        }
        std::vector<ClusterId> dsts;
        for (ClusterId c = 0; c < C; ++c) {
            if (reached[c])
                dsts.push_back(c);
        }
        if (dsts.empty())
            continue;
        const NodeId copy = loop.graph.addNode(
            Opcode::Copy, 1, "cp_" + graph_.node(v).name);
        for (const ClusterId dst : dsts)
            serving[static_cast<size_t>(v) * C + dst] = copy;
        loop.placement.push_back({clusterOf[v], std::move(dsts)});
        loop.graph.addEdge(v, copy, graph_.node(v).latency, 0);
        schedule.startCycle.push_back(
            decodeStart(solver, copyOrderOf(v)));
    }
    for (const DfgEdge &edge : graph_.edges()) {
        if (clusterOf[edge.src] == clusterOf[edge.dst]) {
            loop.graph.addEdge(edge.src, edge.dst, edge.latency,
                               edge.distance);
        } else {
            loop.graph.addEdge(
                serving[static_cast<size_t>(edge.src) * C +
                        clusterOf[edge.dst]],
                edge.dst, 1, edge.distance);
        }
    }
}

} // namespace cams
