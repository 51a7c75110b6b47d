#include "assign/assigner.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <set>
#include <span>

#include "assign/router.hh"
#include "assign/selector.hh"
#include "graph/analysis.hh"
#include "graph/scc.hh"
#include "order/scc_sets.hh"
#include "order/swing_order.hh"
#include "pipeline/context.hh"
#include "support/logging.hh"
#include "support/time.hh"

namespace cams
{

namespace
{

/** Copy bookkeeping for one value (indexed by its producer node). */
struct ValueComm
{
    /** The value crosses clusters: this record holds MRT slots. */
    bool live = false;

    /** Cluster the value is produced on. */
    ClusterId src = invalidCluster;

    /** Destination clusters of the broadcast copy (bused). */
    std::vector<ClusterId> dsts;

    /** The broadcast copy's MRT row (bused). */
    int row = -1;

    /** Relay hops, parent before child, with their MRT rows. */
    struct HopSlot
    {
        Hop hop;
        int row = -1;
    };
    std::vector<HopSlot> hops;

    /**
     * Copy operations the record stands for. Every hop lands on a
     * distinct cluster, so this is also RC, the number of clusters
     * the value reaches beyond its own.
     */
    int
    copyCount(bool broadcast) const
    {
        if (!live)
            return 0;
        return broadcast ? 1 : static_cast<int>(hops.size());
    }
};

/**
 * Mutable assignment state: node placements, the shared MRT, and one
 * communication record per produced value that currently crosses
 * clusters. All mutations run through transactions so a tentative
 * placement can be rolled back exactly.
 *
 * One state serves every restart of a ClusterAssigner::run call:
 * reset() clears it in place, and the per-node tables, copy records
 * and undo logs keep their storage, so the Figure 10 probe loop does
 * not allocate. Copy requests are rebuilt into a scratch buffer from
 * (source, destinations) instead of being stored per reservation.
 *
 * With an Adjacency (the incremental pipeline) the state also keeps
 * the §4.2 predictions up to date as placements and copies change,
 * so the PCR <= MRC and incoming-copy filters read one counter per
 * cluster; without one it rescans the graph per query, the original
 * formulation the A/B determinism tests compare against.
 */
class AssignState
{
  public:
    enum class FailKind
    {
        None,
        Fu,   ///< no function-unit slot for the node itself
        Comm, ///< a required copy could not be reserved
    };

    struct TryOutcome
    {
        bool ok = false;
        FailKind kind = FailKind::None;
        /** Producer whose communication failed (Comm failures). */
        NodeId commValue = invalidNode;
    };

    /**
     * Undo log of one tryAssign. Logged records are swapped between
     * the comm table and this log, never destroyed, so a reused Txn
     * and the table trade buffers instead of allocating.
     */
    struct Txn
    {
        NodeId node = invalidNode;
        bool fuSet = false;
        /** Entries [0, logged) of values/saved belong to this log. */
        int logged = 0;
        /** Each logged value and its record before the transaction. */
        std::vector<NodeId> values;
        std::vector<ValueComm> saved;

        void
        begin(NodeId n)
        {
            node = n;
            fuSet = false;
            logged = 0;
        }
    };

    AssignState(const Dfg &graph, const ResourceModel &model, Mrt &mrt,
                FaultInjector *faults)
        : graph_(graph), model_(model), machine_(model.machine()),
          broadcast_(machine_.broadcast()),
          clusters_(machine_.numClusters()), faults_(faults), mrt_(mrt)
    {
        // Pool lists per cluster, ascending and deduplicated like the
        // per-call std::set in freeClusterResources.
        clusterPools_.resize(clusters_);
        opReq_.resize(clusters_);
        for (ClusterId c = 0; c < clusters_; ++c) {
            std::vector<PoolId> &pools = clusterPools_[c];
            for (int cls = 0; cls < numFuClasses; ++cls) {
                const PoolId pool =
                    model_.fuPool(c, static_cast<FuClass>(cls));
                if (pool != invalidPool) {
                    pools.push_back(pool);
                    opReq_[c][cls] = {pool};
                }
            }
            for (PoolId port : {model_.readPool(c), model_.writePool(c)}) {
                if (port != invalidPool)
                    pools.push_back(port);
            }
            std::sort(pools.begin(), pools.end());
            pools.erase(std::unique(pools.begin(), pools.end()),
                        pools.end());
        }
        comm_.resize(graph.numNodes());
        fuClass_.resize(graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            fuClass_[v] = opcodeFuClass(graph.node(v).op);
    }

    /**
     * Clears every placement and copy for a new attempt; the caller
     * resets the MRT. A null adjacency selects the from-scratch arm.
     */
    void
    reset(const Adjacency *adjacency)
    {
        adj_ = adjacency;
        const int n = graph_.numNodes();
        clusterOf_.assign(n, invalidCluster);
        fuRow_.assign(n, -1);
        for (ValueComm &comm : comm_)
            comm.live = false;
        copyOps_ = 0;
        routeMicros_ = 0;
        if (!adj_)
            return;
        unassignedSuccs_.assign(n, 0);
        for (NodeId v = 0; v < n; ++v) {
            for (NodeId succ : adj_->succs(v))
                unassignedSuccs_[v] += succ != v ? 1 : 0;
        }
        pcrTerm_.assign(n, 0);
        pcrCluster_.assign(n, invalidCluster);
        pcr_.assign(clusters_, 0);
        producerUses_.assign(static_cast<size_t>(n) * clusters_, 0);
        incoming_.assign(clusters_, 0);
    }

    /**
     * The node's distinct predecessors, ascending. Reads the packed
     * adjacency when the compile carries one; otherwise falls back to
     * the allocating Dfg query (the pre-cache behavior), staged
     * through a scratch buffer. Iterations of predsOf and succsOf may
     * nest with each other but not with themselves.
     */
    std::span<const NodeId>
    predsOf(NodeId node) const
    {
        if (adj_)
            return adj_->preds(node);
        predScratch_ = graph_.predecessors(node);
        return {predScratch_.data(), predScratch_.size()};
    }

    /** The node's distinct successors, ascending (see predsOf). */
    std::span<const NodeId>
    succsOf(NodeId node) const
    {
        if (adj_)
            return adj_->succs(node);
        succScratch_ = graph_.successors(node);
        return {succScratch_.data(), succScratch_.size()};
    }

    ClusterId clusterOf(NodeId node) const { return clusterOf_[node]; }

    /** Wall time spent routing copies so far, microseconds. */
    int64_t routeMicros() const { return routeMicros_; }

    bool assigned(NodeId node) const
    {
        return clusterOf_[node] != invalidCluster;
    }

    /** Total copy operations currently reserved. */
    int totalCopies() const { return copyOps_; }

    /** RC(N): required copies generated by the node's value so far. */
    int
    requiredCopiesOf(NodeId value) const
    {
        return comm_[value].copyCount(broadcast_);
    }

    /**
     * Attempts to place the node; commits on success, rolls back on
     * failure. When @p txn is non-null a successful placement is
     * recorded there so the caller can roll it back (tentative mode).
     */
    TryOutcome
    tryAssign(NodeId node, ClusterId cluster, Txn *txn = nullptr)
    {
        cams_check(!assigned(node), "node ", node, " already assigned");
        Txn &log = txn ? *txn : commitLog_;
        log.begin(node);

        TryOutcome outcome;
        const std::vector<PoolId> &req = fuRequest(node, cluster);
        const int row = req.empty() ? -1 : mrt_.findRow(req);
        if (row < 0) {
            outcome.kind = FailKind::Fu;
            return outcome;
        }
        mrt_.claim(req, row);
        fuRow_[node] = row;
        log.fuSet = true;
        clusterOf_[node] = cluster;
        placed(node);

        // Communication of the node's own value, then of each newly
        // crossing predecessor value. This block is the routing phase
        // of a placement; its wall time feeds CompileResult's
        // per-phase breakdown (timed per tryAssign, not per value, to
        // keep the always-on cost to two clock reads per placement).
        const Stopwatch route_watch;
        values_.clear();
        values_.push_back(node);
        for (NodeId pred : predsOf(node)) {
            if (pred != node && assigned(pred) && !inSyncFor(pred, cluster))
                values_.push_back(pred);
        }
        for (NodeId value : values_) {
            if (!syncComm(value, log)) {
                outcome.kind = FailKind::Comm;
                outcome.commValue = value;
                rollback(log);
                routeMicros_ += route_watch.elapsedMicros();
                return outcome;
            }
        }
        routeMicros_ += route_watch.elapsedMicros();
        outcome.ok = true;
        return outcome;
    }

    /** Rolls back a successful tentative tryAssign. */
    void
    rollback(Txn &txn)
    {
        // Release the new communication state of every touched value,
        // then restore the old one slot for slot.
        for (int k = txn.logged - 1; k >= 0; --k)
            dropComm(txn.values[k]);
        for (int k = 0; k < txn.logged; ++k) {
            ValueComm &old = txn.saved[k];
            if (!old.live)
                continue;
            restoreComm(old);
            copyOps_ += commOps(old);
            std::swap(comm_[txn.values[k]], old);
            refreshPcr(txn.values[k]);
        }
        txn.logged = 0;
        if (txn.fuSet) {
            removeNode(txn.node);
            txn.fuSet = false;
        }
    }

    /** Definitively removes a node (eviction path). */
    void
    unassign(NodeId node)
    {
        cams_check(assigned(node), "unassigning unplaced node ", node);
        const ClusterId cluster = clusterOf_[node];
        // The node's own value no longer has a source.
        dropComm(node);
        removeNode(node);

        // Predecessor values may stop crossing clusters: shrink their
        // communication. Shrinking can always be re-reserved because
        // the released slots strictly cover the new need.
        for (NodeId pred : predsOf(node)) {
            if (pred == node || !assigned(pred) ||
                inSyncFor(pred, cluster)) {
                continue;
            }
            commitLog_.begin(invalidNode);
            const bool ok = syncComm(pred, commitLog_);
            cams_check(ok, "shrinking communication of value ", pred,
                       " failed");
        }
    }

    /**
     * PCR_c <= MRC_c test of Figure 10 line 6 for one cluster, using
     * the §4.2 definitions of predicted copy requests and maximum
     * reservable copies.
     */
    bool
    pcrWithinMrc(ClusterId cluster) const
    {
        return roomFor(cluster, model_.readPool(cluster),
                       predictedCopyRequests(cluster));
    }

    /**
     * PCR_c: over the nodes on the cluster, each node's unassigned
     * successors, capped by the copies its value can still add.
     */
    int
    predictedCopyRequests(ClusterId cluster) const
    {
        if (adj_)
            return pcr_[cluster];
        int pcr = 0;
        for (NodeId v = 0; v < graph_.numNodes(); ++v) {
            if (clusterOf_[v] != cluster)
                continue;
            int unassigned_succs = 0;
            for (NodeId succ : succsOf(v)) {
                if (succ != v && !assigned(succ))
                    ++unassigned_succs;
            }
            pcr += std::min(copyBound(v), unassigned_succs);
        }
        return pcr;
    }

    /**
     * Symmetric prediction on the consumer side (an extension in the
     * spirit of §4.2): every distinct unassigned producer feeding a
     * node on the cluster may later need to copy its value in,
     * costing a write port and a bus/link cycle.
     */
    bool
    incomingWithinRoom(ClusterId cluster) const
    {
        return roomFor(cluster, model_.writePool(cluster),
                       predictedIncomingCopies(cluster));
    }

    int
    predictedIncomingCopies(ClusterId cluster) const
    {
        if (adj_)
            return incoming_[cluster];
        std::set<NodeId> producers;
        for (NodeId v = 0; v < graph_.numNodes(); ++v) {
            if (clusterOf_[v] != cluster)
                continue;
            for (NodeId pred : graph_.predecessors(v)) {
                if (pred != v && !assigned(pred))
                    producers.insert(pred);
            }
        }
        return static_cast<int>(producers.size());
    }

    /**
     * True when @p needed copies fit the copy slots still reservable
     * through the port pool: per row, the lesser of the port's and
     * the bus's (or the cluster's links') free slots, summed over the
     * rows -- MRC_c for the read port. The sum only grows, so the
     * scan stops as soon as it covers the need.
     */
    bool
    roomFor(ClusterId cluster, PoolId port, int needed) const
    {
        if (needed <= 0)
            return true;
        if (port == invalidPool)
            return false;
        int room = 0;
        for (int row = 0; row < mrt_.ii(); ++row) {
            const int port_free = mrt_.freeInRow(port, row);
            int channel_free = 0;
            if (broadcast_) {
                channel_free = mrt_.freeInRow(model_.busPool(), row);
            } else {
                for (size_t link = 0; link < machine_.links.size();
                     ++link) {
                    if (machine_.links[link].a == cluster ||
                        machine_.links[link].b == cluster) {
                        channel_free +=
                            mrt_.freeInRow(model_.linkPool(link), row);
                    }
                }
            }
            room += std::min(port_free, channel_free);
            if (room >= needed)
                return true;
        }
        return false;
    }

    /** Free slots across the cluster's local pools. */
    int
    freeClusterResources(ClusterId cluster) const
    {
        if (adj_) {
            int free = 0;
            for (PoolId pool : clusterPools_[cluster])
                free += mrt_.freeTotal(pool);
            return free;
        }
        int free = 0;
        std::set<PoolId> pools;
        for (int cls = 0; cls < numFuClasses; ++cls) {
            const PoolId pool =
                model_.fuPool(cluster, static_cast<FuClass>(cls));
            if (pool != invalidPool)
                pools.insert(pool);
        }
        if (model_.readPool(cluster) != invalidPool)
            pools.insert(model_.readPool(cluster));
        if (model_.writePool(cluster) != invalidPool)
            pools.insert(model_.writePool(cluster));
        for (PoolId pool : pools)
            free += mrt_.freeTotal(pool);
        return free;
    }

    /** Bare-operation fit ignoring copies (Figure 11 line 3). */
    bool
    bareOpFits(NodeId node, ClusterId cluster) const
    {
        const PoolId pool = model_.fuPool(cluster, fuClass_[node]);
        return pool != invalidPool && mrt_.freeTotal(pool) > 0;
    }

    /** Assigned neighbors sitting on other clusters (Fig. 11 line 4). */
    int
    conflictingNeighbors(NodeId node, ClusterId cluster) const
    {
        int conflicts = 0;
        auto count = [&](std::span<const NodeId> neighbors) {
            for (NodeId other : neighbors) {
                if (other != node && assigned(other) &&
                    clusterOf_[other] != cluster) {
                    ++conflicts;
                }
            }
        };
        count(predsOf(node));
        count(succsOf(node));
        return conflicts;
    }

    /** Materializes the annotated loop from the final placements. */
    AnnotatedLoop
    materialize()
    {
        const int n = graph_.numNodes();
        AnnotatedLoop out;
        out.numOriginalNodes = n;
        out.graph.setName(graph_.name());
        out.graph.reserve(n + copyOps_, graph_.numEdges() + copyOps_);
        out.placement.reserve(n + copyOps_);

        for (const DfgNode &node : graph_.nodes()) {
            out.graph.addNode(node.op, node.latency, node.name);
            cams_check(clusterOf_[node.id] != invalidCluster,
                       "materializing with unassigned node ", node.id);
            out.placement.push_back({clusterOf_[node.id], {}});
        }

        // serving_[value * clusters + cluster] = copy node delivering
        // the value to that cluster.
        serving_.assign(static_cast<size_t>(n) * clusters_, invalidNode);
        for (NodeId value = 0; value < n; ++value) {
            const ValueComm &comm = comm_[value];
            if (!comm.live)
                continue;
            NodeId *serving = &serving_[static_cast<size_t>(value) *
                                        clusters_];
            const std::string base = "cp_" + graph_.node(value).name;
            if (broadcast_) {
                const NodeId copy =
                    out.graph.addNode(Opcode::Copy, 1, base);
                out.placement.push_back({comm.src, comm.dsts});
                out.graph.addEdge(value, copy,
                                  graph_.node(value).latency, 0);
                for (ClusterId dst : comm.dsts)
                    serving[dst] = copy;
                continue;
            }
            // Hops are in parent-before-child order.
            for (const ValueComm::HopSlot &slot : comm.hops) {
                const Hop hop = slot.hop;
                const NodeId copy = out.graph.addNode(
                    Opcode::Copy, 1, base + "_" + std::to_string(hop.to));
                out.placement.push_back({hop.from, {hop.to}});
                if (hop.from == comm.src) {
                    out.graph.addEdge(value, copy,
                                      graph_.node(value).latency, 0);
                } else {
                    cams_check(serving[hop.from] != invalidNode,
                               "hop chain out of order");
                    out.graph.addEdge(serving[hop.from], copy, 1, 0);
                }
                serving[hop.to] = copy;
            }
        }

        for (const DfgEdge &edge : graph_.edges()) {
            const ClusterId src_cluster = clusterOf_[edge.src];
            const ClusterId dst_cluster = clusterOf_[edge.dst];
            if (src_cluster == dst_cluster) {
                out.graph.addEdge(edge.src, edge.dst, edge.latency,
                                  edge.distance);
                continue;
            }
            cams_check(comm_[edge.src].live,
                       "cross-cluster edge without communication");
            const NodeId copy =
                serving_[static_cast<size_t>(edge.src) * clusters_ +
                         dst_cluster];
            cams_check(copy != invalidNode,
                       "value does not reach consumer cluster");
            out.graph.addEdge(copy, edge.dst, 1, edge.distance);
        }
        return out;
    }

  private:
    /**
     * True when placing or removing a consumer of the value on
     * @p cluster cannot change the value's copies, so syncComm would
     * return at once: the value sits on that cluster, and its record
     * matches its destinations (every committed or rolled-back change
     * leaves each placed value's record in sync). Point-to-point
     * records are excluded: syncComm compares their hop targets,
     * relays included, with the destinations and re-plans any record
     * that relays.
     */
    bool
    inSyncFor(NodeId value, ClusterId cluster) const
    {
        return clusterOf_[value] == cluster &&
               (broadcast_ || !comm_[value].live);
    }

    /** The node's function-unit request on the cluster (empty: none). */
    const std::vector<PoolId> &
    fuRequest(NodeId node, ClusterId cluster) const
    {
        return opReq_[cluster][static_cast<int>(fuClass_[node])];
    }

    /** Releases the node's unit slot and clears its placement. */
    void
    removeNode(NodeId node)
    {
        const ClusterId cluster = clusterOf_[node];
        mrt_.release(fuRequest(node, cluster), fuRow_[node]);
        fuRow_[node] = -1;
        clusterOf_[node] = invalidCluster;
        unplaced(node, cluster);
    }

    /** Copies the value's record may still add: the §4.2 bound. */
    int
    copyBound(NodeId value) const
    {
        const int rc = requiredCopiesOf(value);
        return broadcast_ ? std::max(0, 1 - rc)
                          : std::max(0, clusters_ - rc - 1);
    }

    /**
     * Incremental counts (adjacency mode), updated when the node has
     * just been placed: its predecessors lose an unassigned successor
     * and gain a consumer on its cluster, and the node stops being an
     * unassigned producer for the clusters that consume it.
     */
    void
    placed(NodeId node)
    {
        if (!adj_)
            return;
        const ClusterId cluster = clusterOf_[node];
        for (NodeId pred : adj_->preds(node)) {
            if (pred == node)
                continue;
            --unassignedSuccs_[pred];
            refreshPcr(pred);
            if (producerUses_[usesIndex(pred, cluster)]++ == 0 &&
                !assigned(pred)) {
                ++incoming_[cluster];
            }
        }
        for (ClusterId c = 0; c < clusters_; ++c) {
            if (producerUses_[usesIndex(node, c)] > 0)
                --incoming_[c];
        }
        refreshPcr(node);
    }

    /** The inverse of placed(), after the node left @p cluster. */
    void
    unplaced(NodeId node, ClusterId cluster)
    {
        if (!adj_)
            return;
        for (NodeId pred : adj_->preds(node)) {
            if (pred == node)
                continue;
            ++unassignedSuccs_[pred];
            refreshPcr(pred);
            if (--producerUses_[usesIndex(pred, cluster)] == 0 &&
                !assigned(pred)) {
                --incoming_[cluster];
            }
        }
        for (ClusterId c = 0; c < clusters_; ++c) {
            if (producerUses_[usesIndex(node, c)] > 0)
                ++incoming_[c];
        }
        refreshPcr(node);
    }

    size_t
    usesIndex(NodeId producer, ClusterId cluster) const
    {
        return static_cast<size_t>(producer) * clusters_ + cluster;
    }

    /**
     * Re-derives one node's PCR contribution after a change to its
     * cluster, its unassigned successors or its RC (adjacency mode).
     */
    void
    refreshPcr(NodeId v)
    {
        if (!adj_)
            return;
        const ClusterId cluster = clusterOf_[v];
        const int term = cluster == invalidCluster
                             ? 0
                             : std::min(copyBound(v), unassignedSuccs_[v]);
        if (pcrCluster_[v] != invalidCluster)
            pcr_[pcrCluster_[v]] -= pcrTerm_[v];
        if (cluster != invalidCluster)
            pcr_[cluster] += term;
        pcrTerm_[v] = term;
        pcrCluster_[v] = cluster;
    }

    /**
     * Re-plans the communication of one value from current placements.
     * Records the previous state in the transaction; on failure the
     * record is left empty with all new slots released (the caller's
     * rollback restores the previous state).
     */
    bool
    syncComm(NodeId value, Txn &txn)
    {
        cams_assert(assigned(value), "syncComm on unassigned value");
        const ClusterId src = clusterOf_[value];

        // Sorted-unique destination set.
        desired_.clear();
        for (NodeId succ : succsOf(value)) {
            if (succ != value && assigned(succ) &&
                clusterOf_[succ] != src) {
                desired_.push_back(clusterOf_[succ]);
            }
        }
        std::sort(desired_.begin(), desired_.end());
        desired_.erase(std::unique(desired_.begin(), desired_.end()),
                       desired_.end());

        ValueComm &current = comm_[value];
        if (current.live ? reachesDesired(current) : desired_.empty())
            return true;

        // Log the previous state once per value per transaction; the
        // record swaps into the log, so nothing is copied.
        bool logged = false;
        for (int k = 0; k < txn.logged && !logged; ++k)
            logged = txn.values[k] == value;
        if (!logged) {
            if (txn.logged == static_cast<int>(txn.saved.size())) {
                txn.values.emplace_back();
                txn.saved.emplace_back();
            }
            const int k = txn.logged++;
            txn.values[k] = value;
            std::swap(txn.saved[k], current);
            current.live = false;
            if (txn.saved[k].live) {
                releaseComm(txn.saved[k]);
                copyOps_ -= commOps(txn.saved[k]);
            }
        } else {
            dropComm(value);
        }
        refreshPcr(value);
        if (desired_.empty())
            return true;

        // Injected bus/link exhaustion: behave exactly as if every
        // reservation below had come back empty.
        if (faults_ && faults_->trip(FaultSite::RouterBusExhaustion))
            return false;

        current.src = src;
        current.hops.clear();
        if (broadcast_) {
            model_.copyRequestInto(src, desired_, req_);
            const int row = mrt_.findRow(req_);
            if (row < 0)
                return false;
            mrt_.claim(req_, row);
            current.dsts.assign(desired_.begin(), desired_.end());
            current.row = row;
        } else {
            for (const Hop &hop : planHops(machine_, src, desired_)) {
                model_.copyRequestInto(hop.from, {&hop.to, 1}, req_);
                const int row = mrt_.findRow(req_);
                if (row < 0) {
                    releaseComm(current);
                    return false;
                }
                mrt_.claim(req_, row);
                current.hops.push_back({hop, row});
            }
        }
        current.live = true;
        copyOps_ += commOps(current);
        refreshPcr(value);
        return true;
    }

    /** True when the live record already serves exactly desired_. */
    bool
    reachesDesired(const ValueComm &comm)
    {
        if (broadcast_)
            return comm.dsts == desired_;
        reached_.clear();
        for (const ValueComm::HopSlot &slot : comm.hops)
            reached_.push_back(slot.hop.to);
        std::sort(reached_.begin(), reached_.end());
        return reached_ == desired_;
    }

    /** The record's copy-op count, as copyCount() reports it. */
    int
    commOps(const ValueComm &comm) const
    {
        return comm.copyCount(broadcast_);
    }

    /** Releases and empties the value's live record, if any. */
    void
    dropComm(NodeId value)
    {
        ValueComm &comm = comm_[value];
        if (!comm.live)
            return;
        releaseComm(comm);
        copyOps_ -= commOps(comm);
        comm.live = false;
        refreshPcr(value);
    }

    /** Frees the record's slots; the rows keep describing them. */
    void
    releaseComm(const ValueComm &comm)
    {
        if (broadcast_) {
            model_.copyRequestInto(comm.src, comm.dsts, req_);
            mrt_.release(req_, comm.row);
            return;
        }
        for (const ValueComm::HopSlot &slot : comm.hops) {
            model_.copyRequestInto(slot.hop.from, {&slot.hop.to, 1},
                                   req_);
            mrt_.release(req_, slot.row);
        }
    }

    /** Re-takes the exact slots of a previously released record. */
    void
    restoreComm(const ValueComm &comm)
    {
        if (broadcast_) {
            model_.copyRequestInto(comm.src, comm.dsts, req_);
            mrt_.claim(req_, comm.row);
            return;
        }
        for (const ValueComm::HopSlot &slot : comm.hops) {
            model_.copyRequestInto(slot.hop.from, {&slot.hop.to, 1},
                                   req_);
            mrt_.claim(req_, slot.row);
        }
    }

    const Dfg &graph_;
    const ResourceModel &model_;
    const MachineDesc &machine_;
    const bool broadcast_;
    const int clusters_;
    FaultInjector *faults_ = nullptr;
    /** Packed neighbor lists, or null for the pre-cache behavior. */
    const Adjacency *adj_ = nullptr;
    int64_t routeMicros_ = 0;
    Mrt &mrt_;
    std::vector<ClusterId> clusterOf_;
    /** Function-unit class of each node's opcode. */
    std::vector<FuClass> fuClass_;
    /** MRT row of each placed node's function-unit slot. */
    std::vector<int> fuRow_;
    /** Copy record per value, indexed by the producer node. */
    std::vector<ValueComm> comm_;
    /** Running copy-op count (totalCopies). */
    int copyOps_ = 0;
    /** Sorted-unique local pools per cluster. */
    std::vector<std::vector<PoolId>> clusterPools_;
    /** Per-(cluster, class) operation request; empty = no units. */
    std::vector<std::array<std::vector<PoolId>, numFuClasses>> opReq_;
    /** Fallback staging for predsOf/succsOf when adj_ is null. */
    mutable std::vector<NodeId> predScratch_;
    mutable std::vector<NodeId> succScratch_;
    /** Reusable buffers for tryAssign / syncComm / materialize. */
    std::vector<NodeId> values_;
    std::vector<ClusterId> desired_;
    std::vector<ClusterId> reached_;
    std::vector<PoolId> req_;
    std::vector<NodeId> serving_;
    /** Undo log of committed placements and eviction shrinks. */
    Txn commitLog_;

    /** Incremental §4.2 counts (adjacency mode only; see DESIGN §9). */
    std::vector<int> unassignedSuccs_; ///< per node
    std::vector<int> pcrTerm_;         ///< node's share of pcr_
    std::vector<ClusterId> pcrCluster_; ///< cluster holding that share
    std::vector<int> pcr_;             ///< PCR per cluster
    /** Assigned consumers of a producer, per (producer, cluster). */
    std::vector<int> producerUses_;
    /** Distinct unassigned producers feeding each cluster. */
    std::vector<int> incoming_;
};

} // namespace

ClusterAssigner::ClusterAssigner(const ResourceModel &model,
                                 AssignOptions options)
    : model_(model), options_(options)
{
}

namespace
{

/** Set CAMS_ASSIGN_TRACE=1 for a stderr log of every decision. */
bool
traceEnabled()
{
    static const bool enabled = std::getenv("CAMS_ASSIGN_TRACE");
    return enabled;
}

} // namespace

/**
 * What one run() call reuses across its restarts: the assignment
 * state and the attempt's work lists. The call owns it, so a const
 * ClusterAssigner stays safe to share between threads.
 */
struct ClusterAssigner::Scratch
{
    Scratch(const Dfg &graph, const ResourceModel &model, Mrt &mrt,
            FaultInjector *faults)
        : state(graph, model, mrt, faults)
    {
    }

    AssignState state;
    /** Undo log of each tentative placement. */
    AssignState::Txn probe;
    std::vector<ClusterChoice> choices;
    CascadeBuffer survivors;
    std::vector<NodeId> order;
    std::vector<int> rank;
    std::vector<char> pendingRank;
    std::vector<char> tried;
    std::vector<long> est;
    std::vector<NodeId> victims;
};

AssignResult
ClusterAssigner::run(const Dfg &graph, int ii, LoopContext *ctx) const
{
    const int restarts =
        options_.iterative ? std::max(1, options_.restartsPerIi) : 1;

    // The context's scratch table survives restarts and II probes;
    // without one, a run-local table does the same across restarts.
    std::optional<Mrt> local;
    if (!ctx)
        local.emplace(model_, ii, options_.mrtScan);
    Mrt &mrt = ctx ? ctx->scratchMrt(model_, ii) : *local;
    mrt.setScanMode(options_.mrtScan);
    const long scan_base = mrt.wordScans();
    Scratch scratch(graph, model_, mrt, options_.faults);

    AssignResult result;
    int evictions = 0;
    int invariant_failures = 0;
    double order_ms = 0.0;
    double route_ms = 0.0;
    // A preferred rotation (the cache's warm-start replay) jumps the
    // queue; the others keep their canonical order behind it, so the
    // same set of rotations is explored either way.
    const int preferred = options_.preferredRotation;
    const bool replay = preferred > 0 && preferred < restarts;
    for (int attempt = 0; attempt < restarts; ++attempt) {
        int rotation = attempt;
        if (replay) {
            if (attempt == 0)
                rotation = preferred;
            else if (attempt <= preferred)
                rotation = attempt - 1;
        }
        try {
            result = runAttempt(graph, ii, rotation, mrt, scratch, ctx);
        } catch (const InternalError &err) {
            // The attempt's state is corrupt; abandon it wholesale and
            // let the next rotation start from scratch: every attempt
            // resets the MRT and the assignment state it reuses.
            ++invariant_failures;
            result = AssignResult{};
            result.failure = FailureKind::InternalInvariant;
            result.detail = err.what();
        }
        // Evictions and phase times accumulate over restarts so the
        // caller sees the full cost of this II, not just the last
        // attempt's share.
        evictions += result.evictions;
        result.evictions = evictions;
        order_ms += result.orderMillis;
        result.orderMillis = order_ms;
        route_ms += result.routeMillis;
        result.routeMillis = route_ms;
        result.invariantFailures = invariant_failures;
        result.wordScans = mrt.wordScans() - scan_base;
        result.rotationUsed = rotation;
        if (result.success)
            return result;
    }
    return result;
}

AssignResult
ClusterAssigner::runAttempt(const Dfg &graph, int ii, int rotation,
                            Mrt &mrt, Scratch &scratch,
                            LoopContext *ctx) const
{
    AssignResult result;
    const MachineDesc &machine = model_.machine();

    if (ctx) {
        ctx->checkAssignable(machine);
    } else {
        std::string why;
        if (!graph.wellFormed(&why))
            cams_fatal("assigning a malformed graph: ", why);
        for (const DfgNode &node : graph.nodes()) {
            if (node.op == Opcode::Copy)
                cams_fatal("input graphs must not contain copies");
            if (!machine.canExecute(node.op)) {
                cams_fatal("machine '", machine.name,
                           "' cannot execute ", opcodeName(node.op));
            }
        }
    }

    mrt.reset(ii);
    AssignState &state = scratch.state;
    state.reset(ctx ? &ctx->adjacency() : nullptr);
    const Stopwatch order_watch;
    std::optional<SccInfo> local_sccs;
    std::optional<NodeSets> local_sets;
    std::optional<TimeAnalysis> local_timing;
    const SccInfo &sccs =
        ctx ? ctx->sccs() : local_sccs.emplace(findSccs(graph));
    const NodeSets &sets =
        ctx ? ctx->prioritySets()
            : local_sets.emplace(buildPrioritySets(graph, sccs));
    const TimeAnalysis &timing =
        ctx ? ctx->timing(ii)
            : local_timing.emplace(analyzeTiming(graph, ii));
    std::vector<NodeId> &local_order = scratch.order;
    const std::vector<NodeId> *order_ptr = &local_order;
    if (options_.policy == AssignPolicy::AcyclicBug) {
        // BUG processes operations in acyclic dependence order.
        local_order.resize(graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            local_order[v] = v;
        std::stable_sort(local_order.begin(), local_order.end(),
                         [&](NodeId a, NodeId b) {
                             return timing.asap[a] < timing.asap[b];
                         });
    } else if (options_.useSwingOrder) {
        if (ctx) {
            order_ptr = &ctx->swingOrder(ii);
        } else {
            local_order = swingOrder(graph, sets, timing);
        }
    } else {
        // Ablation: plain id order.
        local_order.resize(graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            local_order[v] = v;
    }
    const std::vector<NodeId> &order = *order_ptr;

    std::vector<int> &rank = scratch.rank;
    rank.assign(graph.numNodes(), 0);
    for (size_t i = 0; i < order.size(); ++i)
        rank[order[i]] = static_cast<int>(i);
    result.orderMillis = order_watch.elapsedMs();
    auto finishAttempt = [&](AssignResult &r) {
        r.routeMillis =
            static_cast<double>(state.routeMicros()) / 1000.0;
    };

    // Decision tracing: instants carry the job tag as an argument
    // (scope names are tag-prefixed; instants keep names stable so
    // trace consumers can filter on them).
    const TraceConfig &trace = options_.trace;
    const bool decisions = trace.active(TraceLevel::Decision);
    auto traceInstant = [&](const char *name, TraceArgs args) {
        if (!trace.tag.empty())
            args.emplace_back("job", trace.tag);
        args.emplace_back("ii", std::to_string(ii));
        trace.sink->instant(name, "assign", std::move(args));
    };
    auto verdictSummary = [](const SelectionExplain &explain) {
        std::string out;
        for (const auto &verdict : explain.verdicts) {
            if (!out.empty())
                out += " ";
            out += "C" + std::to_string(verdict.cluster) + ":";
            if (verdict.cluster == explain.winner)
                out += "win";
            else if (verdict.survived)
                out += "tie_loss";
            else
                out += verdict.eliminatedBy ? verdict.eliminatedBy
                                            : "survived";
        }
        return out;
    };

    // Unassigned nodes, highest priority (lowest rank) first. With a
    // context the tree set becomes a rank-indexed bitmap with a
    // moving minimum cursor: identical iteration order (ranks are a
    // permutation, so (rank, node) pairs sort exactly like ranks),
    // no tree rebalance or node allocation per eviction round.
    const int nn = graph.numNodes();
    std::set<std::pair<int, NodeId>> pending;
    std::vector<char> &pendingRank = scratch.pendingRank;
    int pendingCount = 0;
    int minRank = 0;
    if (ctx) {
        pendingRank.assign(nn, 1);
        pendingCount = nn;
    } else {
        for (NodeId v = 0; v < nn; ++v)
            pending.insert({rank[v], v});
    }
    auto pendingEmpty = [&] {
        return ctx ? pendingCount == 0 : pending.empty();
    };
    auto pendingTop = [&]() -> NodeId {
        if (ctx) {
            while (!pendingRank[minRank])
                ++minRank;
            return order[minRank];
        }
        return pending.begin()->second;
    };
    auto pendingErase = [&](NodeId v) {
        if (ctx) {
            pendingRank[rank[v]] = 0;
            --pendingCount;
        } else {
            pending.erase({rank[v], v});
        }
    };
    auto pendingInsert = [&](NodeId v) {
        if (ctx) {
            if (!pendingRank[rank[v]]) {
                pendingRank[rank[v]] = 1;
                ++pendingCount;
            }
            minRank = std::min(minRank, rank[v]);
        } else {
            pending.insert({rank[v], v});
        }
    };

    const int clusters = machine.numClusters();
    std::vector<char> &tried = scratch.tried;
    tried.assign(static_cast<size_t>(nn) * clusters, 0);
    auto triedAt = [&](NodeId node, ClusterId cluster) -> char & {
        return tried[static_cast<size_t>(node) * clusters + cluster];
    };
    auto markTried = [&](NodeId node, ClusterId cluster) {
        char *flags = &tried[static_cast<size_t>(node) * clusters];
        flags[cluster] = 1;
        if (std::all_of(flags, flags + clusters,
                        [](char b) { return b != 0; })) {
            std::fill(flags, flags + clusters, char(0));
            flags[cluster] = 1;
        }
    };

    const int budget = std::max(
        16, static_cast<int>(options_.evictionBudgetFactor *
                             graph.numNodes()));
    int evictions = 0;
    int repair_rounds = rotation;

    // BUG's objective: estimated completion time of each placed node.
    std::vector<long> &est = scratch.est;
    est.assign(graph.numNodes(), 0);
    auto estimateStart = [&](NodeId node, ClusterId cluster,
                             const AssignState &st) {
        long start = timing.asap[node];
        for (EdgeId e : graph.inEdges(node)) {
            const DfgEdge &edge = graph.edge(e);
            if (edge.src == node || !st.assigned(edge.src))
                continue;
            long ready = est[edge.src] + edge.latency;
            if (st.clusterOf(edge.src) != cluster)
                ready += 1; // copy latency
            start = std::max(start, ready);
        }
        return start;
    };

    std::vector<ClusterChoice> &choices = scratch.choices;
    while (!pendingEmpty()) {
        const NodeId node = pendingTop();
        const bool in_scc = sccs.inRecurrence(node);

        choices.clear();
        const int copies_before = state.totalCopies();
        for (ClusterId c = 0; c < machine.numClusters(); ++c) {
            ClusterChoice choice;
            choice.cluster = c;
            choice.previouslyTried = triedAt(node, c) != 0;
            if (in_scc) {
                for (NodeId mate : sccs.components[sccs.componentOf[node]]) {
                    if (mate != node && state.assigned(mate) &&
                        state.clusterOf(mate) == c) {
                        choice.sccMate = true;
                        break;
                    }
                }
            }
            choice.bareOpFits = state.bareOpFits(node, c);
            choice.conflictingNeighbors =
                state.conflictingNeighbors(node, c);

            AssignState::Txn &txn = scratch.probe;
            const auto outcome = state.tryAssign(node, c, &txn);
            if (outcome.ok) {
                choice.feasible = true;
                choice.requiredCopies =
                    state.totalCopies() - copies_before;
                choice.freeResources = state.freeClusterResources(c);
                choice.pcrOk = state.pcrWithinMrc(c);
                choice.pcrInOk = state.incomingWithinRoom(c);
                state.rollback(txn);
            }
            choices.push_back(choice);
        }

        ClusterId best = invalidCluster;
        SelectionExplain explain;
        if (options_.policy == AssignPolicy::AcyclicBug) {
            long best_est = 0;
            for (const ClusterChoice &choice : choices) {
                if (!choice.feasible)
                    continue;
                const long start =
                    estimateStart(node, choice.cluster, state);
                if (best == invalidCluster || start < best_est ||
                    (start == best_est &&
                     choice.freeResources >
                         choices[best].freeResources)) {
                    best = choice.cluster;
                    best_est = start;
                }
            }
        } else {
            best = selectBestCluster(
                choices, options_.fullHeuristic, options_.iterative,
                in_scc, repair_rounds, options_.useSccAffinity,
                options_.usePcrPrediction,
                decisions ? &explain : nullptr, &scratch.survivors);
        }

        // Injected eviction storm: veto the winner so the node takes
        // the Figure 11 forcing path (or fails, when non-iterative).
        if (best != invalidCluster && options_.faults &&
            options_.faults->trip(FaultSite::AssignEvictionStorm)) {
            best = invalidCluster;
        }

        if (best != invalidCluster) {
            const auto outcome = state.tryAssign(node, best);
            cams_check(outcome.ok, "committed assignment failed");
            if (options_.policy == AssignPolicy::AcyclicBug)
                est[node] = estimateStart(node, best, state);
            if (traceEnabled()) {
                std::cerr << "[assign] " << graph.node(node).name
                          << " -> C" << best << "\n";
            }
            if (decisions) {
                traceInstant(
                    "assign_decide",
                    {{"node", graph.node(node).name},
                     {"cluster", "C" + std::to_string(best)},
                     {"step", explain.decidingStep
                                  ? explain.decidingStep
                                  : "tie_break"},
                     {"verdicts", verdictSummary(explain)}});
            }
            markTried(node, best);
            pendingErase(node);
            continue;
        }

        if (!options_.iterative) {
            result.evictions = evictions;
            finishAttempt(result);
            return result; // failure: retry at a larger II
        }

        // Figure 11: force the node somewhere and evict conflicts.
        ++repair_rounds;
        SelectionExplain forcedExplain;
        const ClusterId forced = selectForcedCluster(
            choices, true, decisions ? &forcedExplain : nullptr,
            &scratch.survivors);
        if (decisions) {
            traceInstant(
                "force_select",
                {{"node", graph.node(node).name},
                 {"cluster", "C" + std::to_string(forced)},
                 {"step", forcedExplain.decidingStep
                              ? forcedExplain.decidingStep
                              : "tie_break"},
                 {"verdicts", verdictSummary(forcedExplain)},
                 {"repair_round", std::to_string(repair_rounds)}});
        }
        bool placed = false;
        while (!placed) {
            const auto outcome = state.tryAssign(node, forced);
            if (outcome.ok) {
                placed = true;
                break;
            }
            // Figure 11's prescription: remove any and all nodes
            // conflicting with the resources needed by N, as well as
            // any conflicting predecessors and successors.
            std::vector<NodeId> &victims = scratch.victims;
            victims.clear();
            if (outcome.kind == AssignState::FailKind::Fu) {
                // Lowest-priority occupant of the same unit pool
                // (one slot is all the node needs).
                const FuClass cls =
                    opcodeFuClass(graph.node(node).op);
                NodeId victim = invalidNode;
                for (NodeId v = 0; v < graph.numNodes(); ++v) {
                    if (v == node || !state.assigned(v) ||
                        state.clusterOf(v) != forced) {
                        continue;
                    }
                    if (model_.fuPool(forced,
                                      opcodeFuClass(graph.node(v).op)) !=
                        model_.fuPool(forced, cls)) {
                        continue;
                    }
                    if (victim == invalidNode ||
                        rank[v] > rank[victim]) {
                        victim = v;
                    }
                }
                if (victim != invalidNode)
                    victims.push_back(victim);
            } else {
                const NodeId value = outcome.commValue;
                if (value != node) {
                    // A predecessor's copy cannot be placed: evict the
                    // predecessor so it can follow this node.
                    victims.push_back(value);
                } else {
                    // Copies from this node to its consumers fail:
                    // evict every remote consumer so they can regroup
                    // around the forced placement. (The node is not
                    // yet assigned, so remoteness is measured against
                    // the forced cluster.)
                    for (NodeId succ : state.succsOf(node)) {
                        if (succ != node && state.assigned(succ) &&
                            state.clusterOf(succ) != forced) {
                            victims.push_back(succ);
                        }
                    }
                }
            }
            if (traceEnabled()) {
                std::cerr << "[force] " << graph.node(node).name
                          << " -> C" << forced << " failed ("
                          << (outcome.kind == AssignState::FailKind::Fu
                                  ? "fu"
                                  : "comm value " +
                                        std::to_string(
                                            outcome.commValue))
                          << "), victims";
                for (NodeId victim : victims)
                    std::cerr << " " << graph.node(victim).name;
                if (victims.empty())
                    std::cerr << " <none>";
                std::cerr << "\n";
            }
            if (decisions) {
                std::string evictees;
                for (NodeId victim : victims) {
                    if (!evictees.empty())
                        evictees += " ";
                    evictees += graph.node(victim).name + "#" +
                                std::to_string(victim);
                }
                int tried_count = 0;
                for (ClusterId c = 0; c < clusters; ++c)
                    tried_count += triedAt(node, c) ? 1 : 0;
                traceInstant(
                    "force_place",
                    {{"evictor", graph.node(node).name + "#" +
                                     std::to_string(node)},
                     {"cluster", "C" + std::to_string(forced)},
                     {"fail",
                      outcome.kind == AssignState::FailKind::Fu
                          ? "fu"
                          : "comm"},
                     {"evictees",
                      evictees.empty() ? "<none>" : evictees},
                     {"tried_clusters",
                      std::to_string(tried_count)},
                     {"evictions_total",
                      std::to_string(
                          evictions +
                          static_cast<int>(victims.size()))}});
            }
            if (victims.empty()) {
                // Nothing sensible to evict: the repair dead-ended.
                result.failure = FailureKind::AssignLivelock;
                result.detail = detail::concat(
                    "eviction repair dead-ended at node '",
                    graph.node(node).name, "' (II ", ii, ")");
                if (decisions) {
                    traceInstant("assign_fail",
                                 {{"reason", "livelock_dead_end"},
                                  {"node", graph.node(node).name}});
                }
                result.evictions = evictions;
                finishAttempt(result);
                return result;
            }
            evictions += static_cast<int>(victims.size());
            if (evictions > budget) {
                result.failure = FailureKind::AssignLivelock;
                result.detail = detail::concat(
                    "eviction budget (", budget, ") exhausted at II ",
                    ii);
                if (decisions) {
                    traceInstant(
                        "assign_fail",
                        {{"reason", "eviction_budget"},
                         {"budget", std::to_string(budget)}});
                }
                result.evictions = evictions;
                finishAttempt(result);
                return result;
            }
            for (NodeId victim : victims) {
                state.unassign(victim);
                pendingInsert(victim);
            }
        }
        if (options_.policy == AssignPolicy::AcyclicBug)
            est[node] = estimateStart(node, forced, state);
        markTried(node, forced);
        pendingErase(node);
    }

    result.loop = state.materialize();
    result.clusterOf.resize(graph.numNodes());
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        result.clusterOf[v] = state.clusterOf(v);
    result.copies = result.loop.numCopies();
    result.evictions = evictions;
    result.success = true;
    finishAttempt(result);
    return result;
}

} // namespace cams
