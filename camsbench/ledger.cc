#include "ledger.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace camsbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanRecorder::open(const char *name, int64_t id, int parent)
{
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent;
    spans_.push_back(span);
    spans_.back().startNs = nowNs();
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::close(int index)
{
    spans_[index].endNs = nowNs();
}

int
SpanRecorder::add(const Span &span)
{
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "index\tname\tstart_ns\tend_ns\tparent\tid\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << i << '\t' << s.name << '\t' << s.startNs << '\t'
            << s.endNs << '\t' << s.parent << '\t' << s.id << '\n';
    }
    return static_cast<bool>(out);
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        if (parent >= 0 && static_cast<size_t>(parent) < spans.size())
            children[parent].push_back(static_cast<int>(i));
    }
    std::vector<int64_t> self(spans.size(), 0);
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        cover.clear();
        for (const int c : children[i]) {
            const int64_t lo = std::max(spans[c].startNs, span.startNs);
            const int64_t hi = std::min(spans[c].endNs, span.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0;
        int64_t runLo = 0, runHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : cover) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open)
            covered += runHi - runLo;
        self[i] = std::max<int64_t>(0, span.endNs - span.startNs) -
                  covered;
    }
    return self;
}

std::map<std::string, int64_t>
selfTimeByNameNs(const std::vector<Span> &spans)
{
    const std::vector<int64_t> self = selfTimesNs(spans);
    std::map<std::string, int64_t> byName;
    for (size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name] += self[i];
    return byName;
}

std::optional<Percentile>
percentile(std::vector<double> samples, double q)
{
    const long n = static_cast<long>(samples.size());
    if (n == 0 || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    long rank = static_cast<long>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp(rank, 1L, n);
    if (n - rank < minSamplesBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    Percentile p;
    p.value = samples[rank - 1];
    p.samples = n;
    p.beyond = n - rank;
    return p;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<WindowMedians>
windowMedians(const std::vector<Window> &windows)
{
    if (windows.empty())
        return std::nullopt;
    WindowMedians m;
    std::vector<double> rates, p50s, p99s;
    m.minBeyondP99 = std::numeric_limits<long>::max();
    for (const Window &w : windows) {
        const auto p50 = percentile(w.latencyMs, 0.50);
        const auto p99 = percentile(w.latencyMs, 0.99);
        if (!p50 || !p99 || w.seconds <= 0.0)
            return std::nullopt;
        rates.push_back(static_cast<double>(w.latencyMs.size()) /
                        w.seconds);
        p50s.push_back(p50->value);
        p99s.push_back(p99->value);
        m.samples += p99->samples;
        m.minBeyondP99 = std::min(m.minBeyondP99, p99->beyond);
    }
    m.perSecond = median(rates);
    m.p50 = median(p50s);
    m.p99 = median(p99s);
    m.windows = static_cast<long>(windows.size());
    return m;
}

void
Outcomes::note(const std::string &why)
{
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(why);
}

void
Outcomes::programFailure(const std::string &why)
{
    note(why);
}

void
Outcomes::oracleMismatch(const std::string &why)
{
    ++mismatches_;
    note("oracle: " + why);
}

void
Outcomes::merge(const Outcomes &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    mismatches_ += other.mismatches_;
    for (const std::string &why : other.reasons_) {
        if (reasons_.size() < 8)
            reasons_.push_back(why);
    }
}

double
Outcomes::failFrac() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

namespace
{

/** A JSON number with every digit of the double. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

std::string
resultJson(const Outcomes &outcomes, const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (outcomes.correct() ? "true" : "false")
        << ", \"attempted\": " << outcomes.attempted()
        << ", \"failed\": " << outcomes.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out << ", ";
        out << '"' << metrics[i].name << "\": {\"value\": "
            << number(metrics[i].value) << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace camsbench
