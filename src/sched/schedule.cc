#include "sched/schedule.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"

namespace cams
{

namespace
{

int
floorDiv(int a, int b)
{
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}

int
floorMod(int a, int b)
{
    return a - floorDiv(a, b) * b;
}

} // namespace

void
ModuloScheduler::traceAttempt(int ii, bool success, long slotConflicts,
                              long ejections) const
{
    if (!trace_.active(TraceLevel::Decision))
        return;
    TraceArgs args = {
        {"scheduler", name()},
        {"ii", std::to_string(ii)},
        {"success", success ? "true" : "false"},
        {"slot_conflicts", std::to_string(slotConflicts)},
        {"ejections", std::to_string(ejections)},
    };
    if (!trace_.tag.empty())
        args.emplace_back("job", trace_.tag);
    trace_.sink->instant("sched_attempt", "sched", std::move(args));
}

Mrt &
ModuloScheduler::scratchMrt(const ResourceModel &model, int ii) const
{
    scratch_.reset(model, ii);
    return scratch_;
}

int
Schedule::row(NodeId node) const
{
    cams_assert(ii > 0, "row() on an empty schedule");
    return floorMod(startCycle[node], ii);
}

int
Schedule::stage(NodeId node) const
{
    cams_assert(ii > 0, "stage() on an empty schedule");
    return floorDiv(startCycle[node], ii);
}

int
Schedule::stageCount() const
{
    int max_stage = 0;
    for (size_t v = 0; v < startCycle.size(); ++v)
        max_stage = std::max(max_stage, stage(static_cast<NodeId>(v)));
    return max_stage + 1;
}

int
Schedule::length(const Dfg &graph) const
{
    int length = 0;
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        length = std::max(length, startCycle[v] + graph.node(v).latency);
    return length;
}

void
Schedule::normalize()
{
    if (startCycle.empty())
        return;
    const int min_start =
        *std::min_element(startCycle.begin(), startCycle.end());
    const int shift = -floorDiv(min_start, ii) * ii;
    for (int &start : startCycle)
        start += shift;
}

std::string
Schedule::dump(const AnnotatedLoop &loop) const
{
    std::ostringstream os;
    os << "II=" << ii << " stages=" << stageCount() << "\n";
    for (int r = 0; r < ii; ++r) {
        os << "  row " << r << ":";
        for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
            if (row(v) == r) {
                os << " " << loop.graph.node(v).name << "@"
                   << startCycle[v] << "(C" << loop.placement[v].cluster
                   << ")";
            }
        }
        os << "\n";
    }
    return os.str();
}

} // namespace cams
