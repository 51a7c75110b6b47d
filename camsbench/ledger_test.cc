/**
 * @file
 * Unit tests of the benchmark's bookkeeping: the percentile rule,
 * span self time and failure accounting. Run them with
 * `python3 camsbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ledger.hh"

namespace camsbench
{
namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    // p99 of n samples has n - ceil(0.99 n) samples above it.
    EXPECT_FALSE(percentile(oneTo(999), 0.99).has_value()); // 9 beyond
    const auto p = percentile(oneTo(1000), 0.99);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->beyond, 10);
    EXPECT_EQ(p->samples, 1000);
    EXPECT_DOUBLE_EQ(p->value, 990.0);
}

TEST(Percentile, NearestRankMedian)
{
    const auto p = percentile(oneTo(21), 0.50);
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->value, 11.0);
    EXPECT_EQ(p->beyond, 10);
    EXPECT_FALSE(percentile(oneTo(19), 0.50).has_value());
}

TEST(Percentile, RejectsEmptyAndBadQuantiles)
{
    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_FALSE(percentile(oneTo(100), 0.0).has_value());
    EXPECT_FALSE(percentile(oneTo(100), 1.0).has_value());
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

Span
span(const char *name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, SubtractsChildren)
{
    const std::vector<Span> spans = {
        span("loop", 0, 100, -1),
        span("assign", 10, 40, 0),
        span("sched", 50, 70, 0),
    };
    const std::vector<int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 30);
    EXPECT_EQ(self[2], 20);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    const std::vector<Span> spans = {
        span("request", 0, 100, -1),
        span("a", 10, 50, 0),
        span("b", 30, 60, 0),  // overlaps a: union is [10, 60)
        span("c", 90, 130, 0), // clipped to the parent at 100
    };
    EXPECT_EQ(selfTimesNs(spans)[0], 100 - 50 - 10);
}

TEST(SelfTime, NestedSpansAndNames)
{
    const std::vector<Span> spans = {
        span("exact_split", 0, 100, -1),
        span("encode", 0, 30, 0),
        span("solve", 30, 90, 0),
        span("inner", 40, 50, 2),
        span("encode", 200, 210, -1),
    };
    const auto byName = selfTimeByNameNs(spans);
    EXPECT_EQ(byName.at("exact_split"), 10);
    EXPECT_EQ(byName.at("encode"), 40);
    EXPECT_EQ(byName.at("solve"), 50);
    EXPECT_EQ(byName.at("inner"), 10);
}

TEST(SpanRecorder, OpensAndClosesInOrder)
{
    SpanRecorder rec;
    const int root = rec.open("loop", 7, -1);
    const int child = rec.open("mii", 7, root);
    rec.close(child);
    rec.close(root);
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, root);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_LE(rec.spans()[1].endNs, rec.spans()[0].endNs);
}

TEST(Outcomes, FailFracCountsBothKinds)
{
    Outcomes o;
    EXPECT_DOUBLE_EQ(o.failFrac(), 0.0);
    EXPECT_FALSE(o.correct()); // nothing attempted proves nothing
    o.attempt(10);
    EXPECT_TRUE(o.correct());
    o.programFailure("degraded");
    EXPECT_TRUE(o.correct()); // a reported failure is not a wrong answer
    o.oracleMismatch("served bytes differ");
    EXPECT_FALSE(o.correct());
    EXPECT_EQ(o.failed(), 2);
    EXPECT_EQ(o.mismatches(), 1);
    EXPECT_DOUBLE_EQ(o.failFrac(), 0.2);
    EXPECT_EQ(o.reasons().back(), "oracle: served bytes differ");
}

TEST(Outcomes, MergeKeepsEveryCount)
{
    Outcomes a, b;
    a.attempt(5);
    b.attempt(20);
    for (int i = 0; i < 12; ++i)
        b.programFailure("shed"); // more than the reasons it keeps
    b.oracleMismatch("bytes differ");
    a.merge(b);
    EXPECT_EQ(a.attempted(), 25);
    EXPECT_EQ(a.failed(), 13);
    EXPECT_EQ(a.mismatches(), 1);
    EXPECT_FALSE(a.correct());
    EXPECT_DOUBLE_EQ(a.failFrac(), 13.0 / 25.0);
}

TEST(ResultJson, HasExactlyTheContractKeys)
{
    Outcomes o;
    o.attempt(3);
    const std::string json =
        resultJson(o, {{"latency_p50_ms", 0.125, "ms"},
                       {"setup_s", 1.5, "s"}});
    EXPECT_EQ(json,
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"latency_p50_ms\": {\"value\": 0.125, "
              "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 1.5, "
              "\"unit\": \"s\"}}}");
}

} // namespace
} // namespace camsbench
