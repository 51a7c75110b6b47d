/**
 * @file
 * Bookkeeping of the CAMS benchmark that does not depend on any
 * workload: in-memory spans and their self times, the percentile
 * rule, failure accounting and the metric list the run prints.
 * Unit tests: ledger_test.cc.
 */

#ifndef CAMSBENCH_LEDGER_HH
#define CAMSBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace camsbench
{

/** Monotonic nanoseconds (steady clock). */
int64_t nowNs();

/** One timed interval at a layer boundary. */
struct Span
{
    const char *name = ""; ///< layer name; a string literal
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1; ///< index of the causing span; -1 = root
    int64_t id = 0;  ///< loop or request id the span belongs to
};

/**
 * Spans of one run, kept in memory and written out once at the end.
 * Single-threaded: each thread that traces owns its recorder.
 */
class SpanRecorder
{
  public:
    /** Opens a span now; @return its index. */
    int open(const char *name, int64_t id, int parent);

    /** Closes the span opened as @p index now. */
    void close(int index);

    /** Appends an already-measured span; @return its index. */
    int add(const Span &span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes one tab-separated line per span; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name, int64_t id,
               int parent)
        : recorder_(recorder), index_(recorder.open(name, id, parent))
    {
    }
    ~ScopedSpan() { recorder_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder &recorder_;
    int index_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that the union of its children's intervals covers.
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Self time summed per span name. */
std::map<std::string, int64_t>
selfTimeByNameNs(const std::vector<Span> &spans);

/** A percentile together with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    long samples = 0; ///< samples it was taken over
    long beyond = 0;  ///< samples strictly ranked above it
};

/** Fewest samples that must lie beyond a reported percentile. */
constexpr long minSamplesBeyond = 10;

/**
 * Nearest-rank percentile (0 < q < 1) of @p samples: the value of
 * rank ceil(q * n). Returns nothing when fewer than
 * minSamplesBeyond samples rank above it, because such a tail is
 * set by a handful of outliers.
 */
std::optional<Percentile> percentile(std::vector<double> samples,
                                     double q);

/** Median of a non-empty list (mean of the middle two when even). */
double median(std::vector<double> values);

/** Completed operations of one stretch of a run. */
struct Window
{
    double seconds = 0.0; ///< time the stretch took
    std::vector<double> latencyMs;
};

/**
 * Throughput and latency of a run as the median over its windows of
 * each window's figure, so a burst of interference that slows a few
 * windows does not move the result.
 */
struct WindowMedians
{
    double perSecond = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    long windows = 0;
    long samples = 0;      ///< operations over all windows
    long minBeyondP99 = 0; ///< fewest samples beyond any window's p99
};

/**
 * Medians over @p windows; nothing when a window is too small for
 * its p99 to have minSamplesBeyond samples beyond it.
 */
std::optional<WindowMedians> windowMedians(
    const std::vector<Window> &windows);

/**
 * Attempted and failed operations of a run. An operation fails when
 * the program reports failure (a failed or degraded compile, a shed,
 * timed-out or errored request) or when an oracle disagrees with its
 * output; oracle disagreements also make the run incorrect.
 */
class Outcomes
{
  public:
    void attempt(long count = 1) { attempted_ += count; }

    /** The program itself reported a failure. */
    void programFailure(const std::string &why);

    /** An oracle rejected an output the program reported as good. */
    void oracleMismatch(const std::string &why);

    /** Adds another set of outcomes to this one. */
    void merge(const Outcomes &other);

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    long mismatches() const { return mismatches_; }

    /** failed / attempted; 0 when nothing was attempted. */
    double failFrac() const;

    /** No oracle mismatch and at least one operation attempted. */
    bool correct() const { return mismatches_ == 0 && attempted_ > 0; }

    /** First few failure reasons, for the log. */
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    void note(const std::string &why);

    long attempted_ = 0;
    long failed_ = 0;
    long mismatches_ = 0;
    std::vector<std::string> reasons_;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result line the benchmark prints last: one JSON object with
 * the keys correct, attempted, failed and metrics.
 */
std::string resultJson(const Outcomes &outcomes,
                       const std::vector<Metric> &metrics);

} // namespace camsbench

#endif // CAMSBENCH_LEDGER_HH
