#include "pipeline/cache/serialize.hh"

#include <bit>
#include <cstring>

#include "graph/builder.hh"
#include "pipeline/cache/hash.hh"

namespace cams
{

namespace
{

/** Ceilings that reject garbage before it allocates. */
constexpr uint64_t maxStringBytes = uint64_t(1) << 28;
constexpr uint64_t maxListEntries = uint64_t(1) << 24;

/** Smallest packDfg image of one node (op, latency, name length)
 *  and of one edge (src, dst, latency, distance). */
constexpr size_t minNodeBytes = 4 + 8 + 8;
constexpr size_t minEdgeBytes = 4 * 8;

/** Writes the low @p count bytes of @p value little-endian. */
void
putLittleEndian(char *out, uint64_t value, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** The packDfg layout. */
void
emit(ByteWriter &w, const Dfg &graph)
{
    w.str(graph.name());
    w.u64(graph.numNodes());
    for (const DfgNode &node : graph.nodes()) {
        w.u32(static_cast<uint32_t>(node.op));
        w.i64(node.latency);
        w.str(node.name);
    }
    w.u64(graph.numEdges());
    for (const DfgEdge &edge : graph.edges()) {
        w.i64(edge.src);
        w.i64(edge.dst);
        w.i64(edge.latency);
        w.i64(edge.distance);
    }
}

/** The packMachine layout. */
void
emit(ByteWriter &w, const MachineDesc &machine)
{
    w.str(machine.name);
    w.u32(static_cast<uint32_t>(machine.interconnect));
    w.i64(machine.numBuses);
    w.u64(machine.clusters.size());
    for (const ClusterDesc &cluster : machine.clusters) {
        w.i64(cluster.gpUnits);
        for (const int units : cluster.fsUnits)
            w.i64(units);
        w.i64(cluster.readPorts);
        w.i64(cluster.writePorts);
    }
    w.u64(machine.links.size());
    for (const LinkDesc &link : machine.links) {
        w.i64(link.a);
        w.i64(link.b);
    }
}

/**
 * The image of @p value, packed into this thread's reused buffer: the
 * image hash and the byte-exact gate allocate nothing once it has
 * grown. Cache lookups and stores run on worker threads, so the
 * buffer is never shared; the view is valid until the thread packs
 * its next image of the same kind.
 */
template <class T>
std::string_view
scratchImage(const T &value)
{
    thread_local ByteWriter buffer;
    buffer.clear();
    emit(buffer, value);
    return buffer.data();
}

} // namespace

void
ByteWriter::u32(uint32_t value)
{
    char buf[4];
    putLittleEndian(buf, value, sizeof(buf));
    out_.append(buf, sizeof(buf));
}

void
ByteWriter::u64(uint64_t value)
{
    char buf[8];
    putLittleEndian(buf, value, sizeof(buf));
    out_.append(buf, sizeof(buf));
}

void
ByteWriter::f64(double value)
{
    u64(std::bit_cast<uint64_t>(value));
}

void
ByteWriter::str(std::string_view value)
{
    u64(value.size());
    out_.append(value);
}

bool
ByteReader::take(size_t count, const char *&out)
{
    if (!ok_ || bytes_.size() - pos_ < count) {
        ok_ = false;
        return false;
    }
    out = bytes_.data() + pos_;
    pos_ += count;
    return true;
}

bool
ByteReader::u32(uint32_t &out)
{
    const char *p = nullptr;
    if (!take(sizeof(out), p))
        return false;
    std::memcpy(&out, p, sizeof(out));
    if constexpr (std::endian::native == std::endian::big)
        out = __builtin_bswap32(out);
    return true;
}

bool
ByteReader::u64(uint64_t &out)
{
    const char *p = nullptr;
    if (!take(sizeof(out), p))
        return false;
    std::memcpy(&out, p, sizeof(out));
    if constexpr (std::endian::native == std::endian::big)
        out = __builtin_bswap64(out);
    return true;
}

bool
ByteReader::i64(int64_t &out)
{
    uint64_t raw = 0;
    if (!u64(raw))
        return false;
    out = static_cast<int64_t>(raw);
    return true;
}

bool
ByteReader::f64(double &out)
{
    uint64_t raw = 0;
    if (!u64(raw))
        return false;
    out = std::bit_cast<double>(raw);
    return true;
}

bool
ByteReader::str(std::string &out)
{
    std::string_view value;
    if (!view(value))
        return false;
    out.assign(value);
    return true;
}

bool
ByteReader::view(std::string_view &out)
{
    uint64_t size = 0;
    if (!u64(size) || size > maxStringBytes) {
        ok_ = false;
        return false;
    }
    const char *p = nullptr;
    if (!take(static_cast<size_t>(size), p))
        return false;
    out = std::string_view(p, static_cast<size_t>(size));
    return true;
}

std::string
packDfg(const Dfg &graph)
{
    ByteWriter w;
    emit(w, graph);
    return w.take();
}

bool
dfgImageMatches(std::string_view image, const Dfg &graph)
{
    return image == scratchImage(graph);
}

uint64_t
dfgImageHash(const Dfg &graph)
{
    return hashBytes(scratchImage(graph));
}

bool
readDfg(std::string_view bytes, Dfg &out)
{
    ByteReader r(bytes);
    DfgBuilder graph;
    std::string name;
    if (!r.str(name))
        return false;
    graph.setName(std::move(name));

    // A count the remaining bytes cannot hold is garbage: reject it
    // before it sizes the reservation.
    uint64_t nodes = 0;
    if (!r.u64(nodes) || nodes > maxListEntries ||
        nodes > r.remaining() / minNodeBytes)
        return false;
    graph.reserve(static_cast<int>(nodes), 0);
    for (uint64_t i = 0; i < nodes; ++i) {
        uint32_t op = 0;
        int64_t latency = 0;
        std::string node_name;
        if (!r.u32(op) || op >= uint32_t(numOpcodes) ||
            !r.i64(latency) || latency < 0 || !r.str(node_name)) {
            return false;
        }
        graph.addNode(static_cast<Opcode>(op),
                      static_cast<int>(latency),
                      std::move(node_name));
    }

    uint64_t edges = 0;
    if (!r.u64(edges) || edges > maxListEntries ||
        edges > r.remaining() / minEdgeBytes)
        return false;
    graph.reserve(static_cast<int>(nodes), static_cast<int>(edges));
    for (uint64_t i = 0; i < edges; ++i) {
        int64_t src = 0, dst = 0, latency = 0, distance = 0;
        if (!r.i64(src) || !r.i64(dst) || !r.i64(latency) ||
            !r.i64(distance)) {
            return false;
        }
        if (src < 0 || src >= int64_t(nodes) || dst < 0 ||
            dst >= int64_t(nodes) || latency < 0 || distance < 0) {
            return false;
        }
        graph.addEdge(static_cast<NodeId>(src),
                      static_cast<NodeId>(dst),
                      static_cast<int>(latency),
                      static_cast<int>(distance));
    }
    if (!r.atEnd())
        return false;
    out = graph.build();
    return true;
}

std::string
packMachine(const MachineDesc &machine)
{
    ByteWriter w;
    emit(w, machine);
    return w.take();
}

bool
machineImageMatches(std::string_view image, const MachineDesc &machine)
{
    return image == scratchImage(machine);
}

uint64_t
machineImageHash(const MachineDesc &machine)
{
    return hashBytes(scratchImage(machine));
}

bool
readMachine(std::string_view bytes, MachineDesc &out)
{
    ByteReader r(bytes);
    MachineDesc machine;
    uint32_t interconnect = 0;
    int64_t buses = 0;
    uint64_t clusters = 0;
    if (!r.str(machine.name) || !r.u32(interconnect) ||
        interconnect > uint32_t(InterconnectKind::PointToPoint) ||
        !r.i64(buses) || !r.u64(clusters) ||
        clusters > maxListEntries) {
        return false;
    }
    machine.interconnect = static_cast<InterconnectKind>(interconnect);
    machine.numBuses = static_cast<int>(buses);
    machine.clusters.resize(static_cast<size_t>(clusters));
    for (ClusterDesc &cluster : machine.clusters) {
        int64_t gp = 0, read = 0, write = 0;
        if (!r.i64(gp))
            return false;
        for (int &units : cluster.fsUnits) {
            int64_t count = 0;
            if (!r.i64(count))
                return false;
            units = static_cast<int>(count);
        }
        if (!r.i64(read) || !r.i64(write))
            return false;
        cluster.gpUnits = static_cast<int>(gp);
        cluster.readPorts = static_cast<int>(read);
        cluster.writePorts = static_cast<int>(write);
    }
    uint64_t links = 0;
    if (!r.u64(links) || links > maxListEntries)
        return false;
    machine.links.resize(static_cast<size_t>(links));
    for (LinkDesc &link : machine.links) {
        int64_t a = 0, b = 0;
        if (!r.i64(a) || !r.i64(b))
            return false;
        link.a = static_cast<ClusterId>(a);
        link.b = static_cast<ClusterId>(b);
    }
    if (!r.atEnd())
        return false;
    out = std::move(machine);
    return true;
}

void
writeCompileResult(ByteWriter &w, const CompileResult &result)
{
    w.u32(result.success ? 1 : 0);
    w.i64(result.ii);
    w.i64(result.mii.recMii);
    w.i64(result.mii.resMii);
    w.i64(result.mii.mii);

    w.str(packDfg(result.loop.graph));
    w.i64(result.loop.numOriginalNodes);
    w.u64(result.loop.placement.size());
    for (const OpPlacement &place : result.loop.placement) {
        w.i64(place.cluster);
        w.u64(place.copyDsts.size());
        for (const ClusterId dst : place.copyDsts)
            w.i64(dst);
    }

    w.i64(result.schedule.ii);
    w.u64(result.schedule.startCycle.size());
    for (const int cycle : result.schedule.startCycle)
        w.i64(cycle);

    w.i64(result.copies);
    w.i64(result.attempts);
    w.i64(result.assignRetries);
    w.i64(result.evictions);
    w.u32(static_cast<uint32_t>(result.failure));
    w.str(result.failureDetail);
    w.i64(result.finalIiTried);
    w.u32(static_cast<uint32_t>(result.degraded));
    w.i64(result.invariantRecoveries);
    w.i64(result.verifierRejects);
    w.i64(result.faultTrips);
    w.f64(result.phaseMs.orderMs);
    w.f64(result.phaseMs.assignMs);
    w.f64(result.phaseMs.routeMs);
    w.f64(result.phaseMs.scheduleMs);
    w.f64(result.phaseMs.verifyMs);
    w.f64(result.phaseMs.totalMs);
    w.i64(result.ctxHits);
    w.i64(result.ctxMisses);
    w.i64(result.mrtWordScans);
}

bool
readCompileResult(ByteReader &r, CompileResult &out)
{
    CompileResult result;
    uint32_t success = 0;
    int64_t ii = 0, rec = 0, res = 0, mii = 0;
    if (!r.u32(success) || !r.i64(ii) || !r.i64(rec) || !r.i64(res) ||
        !r.i64(mii)) {
        return false;
    }
    result.success = success != 0;
    result.ii = static_cast<int>(ii);
    result.mii.recMii = static_cast<int>(rec);
    result.mii.resMii = static_cast<int>(res);
    result.mii.mii = static_cast<int>(mii);

    std::string_view graph_bytes;
    int64_t originals = 0;
    uint64_t placements = 0;
    if (!r.view(graph_bytes) ||
        !readDfg(graph_bytes, result.loop.graph) ||
        !r.i64(originals) || !r.u64(placements) ||
        placements > maxListEntries) {
        return false;
    }
    result.loop.numOriginalNodes = static_cast<int>(originals);
    result.loop.placement.resize(static_cast<size_t>(placements));
    for (OpPlacement &place : result.loop.placement) {
        int64_t cluster = 0;
        uint64_t dsts = 0;
        if (!r.i64(cluster) || !r.u64(dsts) || dsts > maxListEntries)
            return false;
        place.cluster = static_cast<ClusterId>(cluster);
        place.copyDsts.resize(static_cast<size_t>(dsts));
        for (ClusterId &dst : place.copyDsts) {
            int64_t id = 0;
            if (!r.i64(id))
                return false;
            dst = static_cast<ClusterId>(id);
        }
    }

    int64_t sched_ii = 0;
    uint64_t cycles = 0;
    if (!r.i64(sched_ii) || !r.u64(cycles) || cycles > maxListEntries)
        return false;
    result.schedule.ii = static_cast<int>(sched_ii);
    result.schedule.startCycle.resize(static_cast<size_t>(cycles));
    for (int &cycle : result.schedule.startCycle) {
        int64_t value = 0;
        if (!r.i64(value))
            return false;
        cycle = static_cast<int>(value);
    }

    int64_t copies = 0, attempts = 0, retries = 0, evictions = 0;
    uint32_t failure = 0;
    int64_t final_ii = 0;
    uint32_t degraded = 0;
    int64_t recoveries = 0, rejects = 0, trips = 0;
    int64_t ctx_hits = 0, ctx_misses = 0, word_scans = 0;
    if (!r.i64(copies) || !r.i64(attempts) || !r.i64(retries) ||
        !r.i64(evictions) || !r.u32(failure) ||
        failure >= uint32_t(numFailureKinds) ||
        !r.str(result.failureDetail) || !r.i64(final_ii) ||
        !r.u32(degraded) ||
        degraded > uint32_t(DegradeLevel::SingleCluster) ||
        !r.i64(recoveries) || !r.i64(rejects) || !r.i64(trips) ||
        !r.f64(result.phaseMs.orderMs) ||
        !r.f64(result.phaseMs.assignMs) ||
        !r.f64(result.phaseMs.routeMs) ||
        !r.f64(result.phaseMs.scheduleMs) ||
        !r.f64(result.phaseMs.verifyMs) ||
        !r.f64(result.phaseMs.totalMs) || !r.i64(ctx_hits) ||
        !r.i64(ctx_misses) || !r.i64(word_scans)) {
        return false;
    }
    result.copies = static_cast<int>(copies);
    result.attempts = static_cast<int>(attempts);
    result.assignRetries = static_cast<int>(retries);
    result.evictions = static_cast<int>(evictions);
    result.failure = static_cast<FailureKind>(failure);
    result.finalIiTried = static_cast<int>(final_ii);
    result.degraded = static_cast<DegradeLevel>(degraded);
    result.invariantRecoveries = static_cast<int>(recoveries);
    result.verifierRejects = static_cast<int>(rejects);
    result.faultTrips = trips;
    result.ctxHits = ctx_hits;
    result.ctxMisses = ctx_misses;
    result.mrtWordScans = word_scans;
    out = std::move(result);
    return true;
}

} // namespace cams
