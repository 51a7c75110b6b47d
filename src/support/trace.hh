/**
 * @file
 * The compile-pipeline event sink, in the spirit of LLVM's
 * TimeTraceProfiler: a thread-safe collector of timestamped events
 * that serializes to Chrome trace-event JSON, loadable directly in
 * chrome://tracing or Perfetto.
 *
 * Event model. Two kinds of events exist:
 *
 *  - scopes ("X" complete events): a named interval with a duration,
 *    recorded by the RAII TraceScope. Phase timers (compile, one II
 *    attempt, assign/schedule/verify) are scopes.
 *  - instants ("i" events): a point-in-time fact with arguments. The
 *    assignment decision trace (per-cluster cascade verdicts, forced
 *    placements, eviction chains, degradation rungs) is instants.
 *
 * Every event carries the lane (tid) of the recording thread, so a
 * batch run shows one swim-lane per worker and the pipeline/batch
 * fan-out is visible at a glance. Events also carry free-form string
 * arguments that Perfetto displays in the selection panel.
 *
 * Levels. TraceLevel::Phase records scopes only; TraceLevel::Decision
 * additionally records the per-node decision instants (roughly one
 * event per node per II attempt -- an order of magnitude more data).
 *
 * Overhead policy. Tracing must cost nothing when off: every recording
 * site is gated on TraceConfig::active(level), which is a null check
 * plus an integer compare -- no clock read, no allocation, no lock. A
 * disabled TraceScope is two branch instructions. When enabled, each
 * event takes one mutex acquisition and one vector push; the sink is
 * an append-only log with no per-event I/O.
 */

#ifndef CAMS_SUPPORT_TRACE_HH
#define CAMS_SUPPORT_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "support/time.hh"

namespace cams
{

/** How much the sink records. */
enum class TraceLevel
{
    Off,      ///< nothing
    Phase,    ///< scoped phase timers only
    Decision, ///< phases + per-node assignment decision instants
};

/** Stable name of a trace level ("off", "phase", "decision"). */
const char *traceLevelName(TraceLevel level);

/** Parses a level name; returns false on unknown input. */
bool parseTraceLevel(const std::string &text, TraceLevel &out);

/** Key/value arguments attached to one event. */
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/** One recorded event (Chrome trace-event fields). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char phase = 'i';  ///< 'X' = complete (scope), 'i' = instant
    int64_t ts = 0;    ///< microseconds since the sink's epoch
    int64_t dur = 0;   ///< scope duration, microseconds ('X' only)
    int tid = 0;       ///< lane of the recording thread
    TraceArgs args;
};

/**
 * Thread-safe append-only event collector. One sink serves a whole
 * process (or batch run); concurrent workers record into it freely.
 */
class TraceSink
{
  public:
    /**
     * @param level        what gets recorded (see TraceLevel)
     * @param capacity     maximum events held; 0 = unbounded (batch
     *                     runs that drain into one file). A bounded
     *                     sink is a ring: when full, the oldest event
     *                     is overwritten and droppedCount() grows, so
     *                     a daemon can trace forever in fixed memory.
     */
    explicit TraceSink(TraceLevel level = TraceLevel::Phase,
                       size_t capacity = 0);

    TraceLevel level() const { return level_; }

    /** Configured ring bound (0 = unbounded). */
    size_t capacity() const { return capacity_; }

    /** Events overwritten because the ring was full. */
    uint64_t droppedCount() const;

    /** True when events of this level are recorded. */
    bool enabled(TraceLevel need) const
    {
        return static_cast<int>(level_) >= static_cast<int>(need) &&
               need != TraceLevel::Off;
    }

    /** Microseconds since the sink was created. */
    int64_t now() const { return nowMicros() - epochMicros_; }

    /** Records a completed scope ('X') that started at @p startUs. */
    void complete(std::string name, std::string cat, int64_t startUs,
                  int64_t durUs, TraceArgs args = {});

    /** Records an instant event ('i') stamped now. */
    void instant(std::string name, std::string cat, TraceArgs args = {});

    /** Events recorded so far. */
    size_t eventCount() const;

    /** Copy of the recorded events (test and report access). */
    std::vector<TraceEvent> snapshot() const;

    /** Distinct lanes that recorded at least one event. */
    int laneCount() const;

    /**
     * Chrome trace-event JSON: {"traceEvents":[...]} plus thread_name
     * metadata naming each lane, ready for chrome://tracing/Perfetto.
     */
    std::string toJson() const;

    /** Writes toJson() to a file; false when the file cannot open. */
    bool writeFile(const std::string &path) const;

  private:
    /** Lane of the calling thread (assigned on first use). */
    int laneOfCurrentThread();

    /** Appends one event, overwriting the oldest when the ring is
     *  full. Callers hold mutex_. */
    void push(TraceEvent event);

    TraceLevel level_;
    size_t capacity_;
    int64_t epochMicros_;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    size_t head_ = 0; ///< oldest slot once the ring wrapped
    uint64_t dropped_ = 0;
    std::map<std::thread::id, int> lanes_;
};

/**
 * How a compile participates in tracing: the shared sink (null = off)
 * and a tag naming this job so interleaved batch traces stay
 * attributable. Carried by CompileOptions and AssignOptions the same
 * way the fault injector is.
 */
struct TraceConfig
{
    TraceSink *sink = nullptr;

    /** Job label ("c:loop_17") prefixing this compile's scope names. */
    std::string tag;

    /** The cheap gate every recording site checks first. */
    bool active(TraceLevel need) const
    {
        return sink != nullptr && sink->enabled(need);
    }
};

/**
 * RAII phase timer: records one 'X' scope from construction to
 * destruction. Inactive scopes (null sink, insufficient level) cost
 * two branches, never read the clock and never build a string.
 */
class TraceScope
{
  public:
    TraceScope(const TraceConfig &trace, TraceLevel need,
               std::string_view name, std::string_view cat)
        : sink_(trace.active(need) ? trace.sink : nullptr)
    {
        if (sink_) {
            name_ = trace.tag.empty() ? "" : trace.tag + "/";
            name_ += name;
            cat_ = cat;
            start_ = sink_->now();
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Attaches one argument to the scope (no-op when inactive). */
    void arg(std::string_view key, std::string_view value)
    {
        if (sink_)
            args_.emplace_back(key, value);
    }

    bool active() const { return sink_ != nullptr; }

    ~TraceScope()
    {
        if (sink_) {
            sink_->complete(std::move(name_), std::move(cat_), start_,
                            sink_->now() - start_, std::move(args_));
        }
    }

  private:
    TraceSink *sink_;
    std::string name_;
    std::string cat_;
    int64_t start_ = 0;
    TraceArgs args_;
};

} // namespace cams

#endif // CAMS_SUPPORT_TRACE_HH
