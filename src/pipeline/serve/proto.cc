#include "pipeline/serve/proto.hh"

#include "pipeline/cache/serialize.hh"

namespace cams
{

const char *
serveMsgTypeName(ServeMsgType type)
{
    switch (type) {
        case ServeMsgType::Hello:
            return "hello";
        case ServeMsgType::HelloAck:
            return "hello_ack";
        case ServeMsgType::Submit:
            return "submit";
        case ServeMsgType::Accepted:
            return "accepted";
        case ServeMsgType::Shed:
            return "shed";
        case ServeMsgType::Result:
            return "result";
        case ServeMsgType::Cancel:
            return "cancel";
        case ServeMsgType::Cancelled:
            return "cancelled";
        case ServeMsgType::Error:
            return "error";
        case ServeMsgType::Ping:
            return "ping";
        case ServeMsgType::Pong:
            return "pong";
        case ServeMsgType::StatsRequest:
            return "stats_request";
        case ServeMsgType::StatsReply:
            return "stats_reply";
        case ServeMsgType::HealthRequest:
            return "health_request";
        case ServeMsgType::HealthReply:
            return "health_reply";
    }
    return "unknown";
}

namespace
{

void
writeType(ByteWriter &writer, ServeMsgType type)
{
    writer.u32(static_cast<uint32_t>(type));
}

} // namespace

std::string
encodeHello(const HelloMsg &msg)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Hello);
    writer.u32(msg.version);
    writer.str(msg.tenant);
    return writer.take();
}

std::string
encodeSubmit(const SubmitMsg &msg)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Submit);
    writer.u64(msg.id);
    writer.u64(msg.retryKey);
    writer.u32(msg.clustered ? 1 : 0);
    writer.u32(msg.scheduler);
    writer.f64(msg.deadlineMs);
    writer.f64(msg.debugSleepMs);
    writer.str(msg.dfgBytes);
    writer.str(msg.machineBytes);
    writer.u64(msg.traceId);
    writer.u32(msg.traceSampled ? 1 : 0);
    return writer.take();
}

std::string
encodeCancel(uint64_t id)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Cancel);
    writer.u64(id);
    return writer.take();
}

std::string
encodePing(uint64_t token)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Ping);
    writer.u64(token);
    return writer.take();
}

std::string
encodeStatsRequest(uint64_t token)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::StatsRequest);
    writer.u64(token);
    return writer.take();
}

std::string
encodeHealthRequest(uint64_t token)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::HealthRequest);
    writer.u64(token);
    return writer.take();
}

std::string
encodeHelloAck(uint32_t workers, uint32_t queueCapacity)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::HelloAck);
    writer.u32(serveProtoVersion);
    writer.u32(workers);
    writer.u32(queueCapacity);
    return writer.take();
}

std::string
encodeAccepted(uint64_t id, uint32_t queueDepth)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Accepted);
    writer.u64(id);
    writer.u32(queueDepth);
    return writer.take();
}

std::string
encodeShed(uint64_t id, const std::string &reason, uint32_t queueDepth,
           double retryAfterMs)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Shed);
    writer.u64(id);
    writer.str(reason);
    writer.u32(queueDepth);
    writer.f64(retryAfterMs);
    return writer.take();
}

std::string
encodeResult(uint64_t id, const CompileResult &result, double queueMs,
             double compileMs)
{
    ByteWriter body;
    writeCompileResult(body, result);
    return encodeResultBytes(id, result.fromCache, queueMs, compileMs,
                             body.take());
}

std::string
encodeResultBytes(uint64_t id, bool fromCache, double queueMs,
                  double compileMs, const std::string &resultBytes)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Result);
    writer.u64(id);
    writer.u32(fromCache ? 1 : 0);
    writer.f64(queueMs);
    writer.f64(compileMs);
    writer.str(resultBytes);
    return writer.take();
}

std::string
encodeCancelled(uint64_t id, bool wasQueued)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Cancelled);
    writer.u64(id);
    writer.u32(wasQueued ? 1 : 0);
    return writer.take();
}

std::string
encodeError(uint64_t id, const std::string &message)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Error);
    writer.u64(id);
    writer.str(message);
    return writer.take();
}

std::string
encodePong(uint64_t token)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::Pong);
    writer.u64(token);
    return writer.take();
}

namespace
{

void
writeSummary(ByteWriter &writer, const HistogramSummary &summary)
{
    writer.u64(summary.count);
    writer.f64(summary.min);
    writer.f64(summary.mean);
    writer.f64(summary.max);
    writer.f64(summary.p50);
    writer.f64(summary.p90);
    writer.f64(summary.p99);
}

bool
readSummary(ByteReader &reader, HistogramSummary &summary)
{
    return reader.u64(summary.count) && reader.f64(summary.min) &&
           reader.f64(summary.mean) && reader.f64(summary.max) &&
           reader.f64(summary.p50) && reader.f64(summary.p90) &&
           reader.f64(summary.p99);
}

} // namespace

std::string
encodeStatsReply(const StatsReplyMsg &msg)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::StatsReply);
    writer.u64(msg.token);
    writer.f64(msg.uptimeSeconds);
    writer.f64(msg.windowSeconds);
    writer.u32(msg.queueDepth);
    writer.u32(msg.inFlight);
    writer.u32(msg.workers);
    writer.u32(msg.queueCapacity);
    writer.u32(msg.draining ? 1 : 0);
    writer.u32(static_cast<uint32_t>(msg.counters.size()));
    for (const StatsCounter &counter : msg.counters) {
        writer.str(counter.name);
        writer.u64(static_cast<uint64_t>(counter.total));
        writer.u64(static_cast<uint64_t>(counter.last1m));
        writer.u64(static_cast<uint64_t>(counter.last5m));
    }
    writer.u32(static_cast<uint32_t>(msg.histograms.size()));
    for (const StatsHistogram &histogram : msg.histograms) {
        writer.str(histogram.name);
        writeSummary(writer, histogram.total);
        writeSummary(writer, histogram.last1m);
        writeSummary(writer, histogram.last5m);
    }
    writer.u32(static_cast<uint32_t>(msg.tenants.size()));
    for (const TenantStats &tenant : msg.tenants) {
        writer.str(tenant.tenant);
        writer.u64(static_cast<uint64_t>(tenant.submitted));
        writer.u64(static_cast<uint64_t>(tenant.completed));
        writer.u64(static_cast<uint64_t>(tenant.shed));
        writer.u64(static_cast<uint64_t>(tenant.cacheHits));
    }
    return writer.take();
}

std::string
encodeHealthReply(const HealthReplyMsg &msg)
{
    ByteWriter writer;
    writeType(writer, ServeMsgType::HealthReply);
    writer.u64(msg.token);
    writer.str(msg.status);
    writer.u32(msg.version);
    writer.f64(msg.uptimeSeconds);
    writer.u32(msg.queueDepth);
    writer.u32(msg.queueCapacity);
    writer.u32(msg.inFlight);
    return writer.take();
}

bool
decodeClientMsg(const std::string &payload, ClientMsg &out)
{
    ByteReader reader(payload);
    uint32_t raw = 0;
    if (!reader.u32(raw))
        return false;
    out.type = static_cast<ServeMsgType>(raw);
    switch (out.type) {
        case ServeMsgType::Hello:
            if (!reader.u32(out.hello.version) ||
                !reader.str(out.hello.tenant))
                return false;
            break;
        case ServeMsgType::Submit: {
            uint32_t clustered = 0;
            SubmitMsg &msg = out.submit;
            if (!reader.u64(msg.id) || !reader.u64(msg.retryKey) ||
                !reader.u32(clustered) ||
                !reader.u32(msg.scheduler) ||
                !reader.f64(msg.deadlineMs) ||
                !reader.f64(msg.debugSleepMs) ||
                !reader.str(msg.dfgBytes) ||
                !reader.str(msg.machineBytes))
                return false;
            msg.clustered = clustered != 0;
            uint32_t sampled = 0;
            if (!reader.u64(msg.traceId) || !reader.u32(sampled))
                return false;
            msg.traceSampled = sampled != 0;
            break;
        }
        case ServeMsgType::Cancel:
            if (!reader.u64(out.id))
                return false;
            break;
        case ServeMsgType::Ping:
        case ServeMsgType::StatsRequest:
        case ServeMsgType::HealthRequest:
            if (!reader.u64(out.token))
                return false;
            break;
        default:
            return false; // server-to-client or unknown type
    }
    return reader.atEnd();
}

bool
decodeServerMsg(const std::string &payload, ServerMsg &out)
{
    ByteReader reader(payload);
    uint32_t raw = 0;
    if (!reader.u32(raw))
        return false;
    out.type = static_cast<ServeMsgType>(raw);
    switch (out.type) {
        case ServeMsgType::HelloAck:
            if (!reader.u32(out.version) || !reader.u32(out.workers) ||
                !reader.u32(out.queueCapacity))
                return false;
            break;
        case ServeMsgType::Accepted:
            if (!reader.u64(out.id) || !reader.u32(out.queueDepth))
                return false;
            break;
        case ServeMsgType::Shed:
            if (!reader.u64(out.id) || !reader.str(out.reason) ||
                !reader.u32(out.queueDepth) ||
                !reader.f64(out.retryAfterMs))
                return false;
            break;
        case ServeMsgType::Result: {
            uint32_t fromCache = 0;
            if (!reader.u64(out.id) || !reader.u32(fromCache) ||
                !reader.f64(out.queueMs) ||
                !reader.f64(out.compileMs) ||
                !reader.str(out.resultBytes))
                return false;
            out.fromCache = fromCache != 0;
            break;
        }
        case ServeMsgType::Cancelled: {
            uint32_t wasQueued = 0;
            if (!reader.u64(out.id) || !reader.u32(wasQueued))
                return false;
            out.wasQueued = wasQueued != 0;
            break;
        }
        case ServeMsgType::Error:
            if (!reader.u64(out.id) || !reader.str(out.message))
                return false;
            break;
        case ServeMsgType::Pong:
            if (!reader.u64(out.token))
                return false;
            break;
        case ServeMsgType::StatsReply: {
            StatsReplyMsg &msg = out.stats;
            uint32_t draining = 0;
            uint32_t counters = 0;
            if (!reader.u64(msg.token) ||
                !reader.f64(msg.uptimeSeconds) ||
                !reader.f64(msg.windowSeconds) ||
                !reader.u32(msg.queueDepth) ||
                !reader.u32(msg.inFlight) ||
                !reader.u32(msg.workers) ||
                !reader.u32(msg.queueCapacity) ||
                !reader.u32(draining) || !reader.u32(counters))
                return false;
            // Element counts are bounded by the payload itself (every
            // entry costs multiple bytes), so a corrupt count cannot
            // drive a huge allocation before the read fails.
            if (counters > payload.size())
                return false;
            msg.draining = draining != 0;
            msg.counters.resize(counters);
            for (StatsCounter &counter : msg.counters) {
                uint64_t total = 0;
                uint64_t last1m = 0;
                uint64_t last5m = 0;
                if (!reader.str(counter.name) ||
                    !reader.u64(total) || !reader.u64(last1m) ||
                    !reader.u64(last5m))
                    return false;
                counter.total = static_cast<int64_t>(total);
                counter.last1m = static_cast<int64_t>(last1m);
                counter.last5m = static_cast<int64_t>(last5m);
            }
            uint32_t histograms = 0;
            if (!reader.u32(histograms) ||
                histograms > payload.size())
                return false;
            msg.histograms.resize(histograms);
            for (StatsHistogram &histogram : msg.histograms) {
                if (!reader.str(histogram.name) ||
                    !readSummary(reader, histogram.total) ||
                    !readSummary(reader, histogram.last1m) ||
                    !readSummary(reader, histogram.last5m))
                    return false;
            }
            uint32_t tenants = 0;
            if (!reader.u32(tenants) || tenants > payload.size())
                return false;
            msg.tenants.resize(tenants);
            for (TenantStats &tenant : msg.tenants) {
                uint64_t submitted = 0;
                uint64_t completed = 0;
                uint64_t shed = 0;
                uint64_t cacheHits = 0;
                if (!reader.str(tenant.tenant) ||
                    !reader.u64(submitted) ||
                    !reader.u64(completed) || !reader.u64(shed) ||
                    !reader.u64(cacheHits))
                    return false;
                tenant.submitted = static_cast<int64_t>(submitted);
                tenant.completed = static_cast<int64_t>(completed);
                tenant.shed = static_cast<int64_t>(shed);
                tenant.cacheHits = static_cast<int64_t>(cacheHits);
            }
            out.token = msg.token;
            break;
        }
        case ServeMsgType::HealthReply: {
            HealthReplyMsg &msg = out.health;
            if (!reader.u64(msg.token) || !reader.str(msg.status) ||
                !reader.u32(msg.version) ||
                !reader.f64(msg.uptimeSeconds) ||
                !reader.u32(msg.queueDepth) ||
                !reader.u32(msg.queueCapacity) ||
                !reader.u32(msg.inFlight))
                return false;
            out.token = msg.token;
            break;
        }
        default:
            return false; // client-to-server or unknown type
    }
    return reader.atEnd();
}

} // namespace cams
