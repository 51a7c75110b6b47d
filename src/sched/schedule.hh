/**
 * @file
 * The modulo schedule produced by phase two: an issue cycle for every
 * operation of an annotated loop at a fixed II. Iteration k of the
 * loop issues operation v at cycle startCycle[v] + k * II.
 */

#ifndef CAMS_SCHED_SCHEDULE_HH
#define CAMS_SCHED_SCHEDULE_HH

#include <string>
#include <vector>

#include "assign/assignment.hh"
#include "support/trace.hh"

namespace cams
{

/** A complete modulo schedule. */
struct Schedule
{
    int ii = 0;

    /** Issue cycle of each node of the annotated graph. */
    std::vector<int> startCycle;

    /** Kernel row of a node: startCycle mod II. */
    int row(NodeId node) const;

    /** Pipeline stage of a node: startCycle div II. */
    int stage(NodeId node) const;

    /** Number of kernel stages (max stage + 1). */
    int stageCount() const;

    /** Makespan of one iteration: max(start + latency). */
    int length(const Dfg &graph) const;

    /**
     * Shifts every start cycle so the earliest is in [0, II), keeping
     * all rows intact (the shift is a multiple of II).
     */
    void normalize();

    /** Human-readable kernel dump (one line per cycle row). */
    std::string dump(const AnnotatedLoop &loop) const;
};

class LoopContext;

/** Common interface so drivers can swap scheduling algorithms. */
class ModuloScheduler
{
  public:
    virtual ~ModuloScheduler() = default;

    /**
     * Attempts to schedule the loop at the given II.
     *
     * A LoopContext bound to loop.graph supplies the cached analyses
     * (feasibility, timing, order, per-node requests); with null the
     * call builds a context of its own, so results are identical
     * either way.
     * @return true and fills @p out on success.
     */
    virtual bool schedule(const AnnotatedLoop &loop,
                          const ResourceModel &model, int ii,
                          Schedule &out, LoopContext *ctx) const = 0;

    /** Convenience overload: a call-local analysis context. */
    bool
    schedule(const AnnotatedLoop &loop, const ResourceModel &model,
             int ii, Schedule &out) const
    {
        return schedule(loop, model, ii, out, nullptr);
    }

    /** Algorithm name for reports. */
    virtual std::string name() const = 0;

    /**
     * Attaches tracing to subsequent schedule() calls. At
     * TraceLevel::Decision every call emits one "sched_attempt"
     * instant summarizing its slot conflicts and ejections at that
     * II. Off (the default) the schedulers pay nothing.
     */
    void setTrace(TraceConfig trace) { trace_ = std::move(trace); }

    /** MRT occupancy words examined across all calls so far. */
    long wordScans() const { return scratch_.wordScans(); }

  protected:
    /** Emits the per-II slot-conflict summary (no-op when off). */
    void traceAttempt(int ii, bool success, long slotConflicts,
                      long ejections) const;

    /**
     * Hands out the reusable reservation table, cleared to the given
     * length. Schedulers run one call at a time, so one table per
     * scheduler suffices.
     */
    Mrt &scratchMrt(const ResourceModel &model, int ii) const;

    TraceConfig trace_;
    /** Reused across schedule() calls; see scratchMrt(). */
    mutable Mrt scratch_;
};

} // namespace cams

#endif // CAMS_SCHED_SCHEDULE_HH
