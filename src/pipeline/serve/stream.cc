#include "pipeline/serve/stream.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include <sys/socket.h>

#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "support/socket.hh"

namespace cams
{

namespace
{

void
sleepMs(double ms)
{
    if (ms > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::milli>(ms));
}

} // namespace

const char *
chaosSiteName(ChaosSite site)
{
    switch (site) {
    case ChaosSite::Delay:
        return "delay";
    case ChaosSite::PartialWrite:
        return "partial_write";
    case ChaosSite::BitFlip:
        return "bit_flip";
    case ChaosSite::Stall:
        return "stall";
    case ChaosSite::Disconnect:
        return "disconnect";
    }
    return "?";
}

bool
ChaosConfig::any() const
{
    return pDelay > 0.0 || pPartialWrite > 0.0 || pBitFlip > 0.0 ||
           pStall > 0.0 || pDisconnect > 0.0;
}

ChaosConfig
ChaosConfig::uniform(double p, uint64_t seed)
{
    ChaosConfig config;
    config.seed = seed;
    config.pDelay = p;
    config.pPartialWrite = p;
    config.pBitFlip = p;
    config.pStall = p;
    config.pDisconnect = p;
    return config;
}

void
ServeStream::enableChaos(const ChaosConfig &config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    rng_ = Rng(config.seed);
    chaosOn_ = config.any();
}

long
ServeStream::injectedFaults() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    long total = 0;
    for (long count : injected_)
        total += count;
    return total;
}

long
ServeStream::injectedAt(ChaosSite site) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return injected_[static_cast<int>(site)];
}

ServeStream::Plan
ServeStream::drawSendPlan(size_t wireBytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Plan plan;
    // One coin per site per frame, in a fixed order, so the fault
    // pattern is a pure function of the seed and frame sequence.
    plan.delay = rng_.chance(config_.pDelay);
    plan.partial = rng_.chance(config_.pPartialWrite);
    plan.bitFlip = rng_.chance(config_.pBitFlip);
    plan.stall = rng_.chance(config_.pStall);
    plan.disconnect = rng_.chance(config_.pDisconnect);
    if (plan.delay) {
        plan.delayMs = config_.delayMs * rng_.uniformReal();
        ++injected_[static_cast<int>(ChaosSite::Delay)];
    }
    if (plan.partial)
        ++injected_[static_cast<int>(ChaosSite::PartialWrite)];
    if (plan.bitFlip) {
        plan.flipBit = static_cast<size_t>(rng_.next()) %
                       (wireBytes * 8);
        ++injected_[static_cast<int>(ChaosSite::BitFlip)];
    }
    if (plan.stall)
        ++injected_[static_cast<int>(ChaosSite::Stall)];
    if (plan.disconnect) {
        plan.cutAt = static_cast<size_t>(rng_.next()) % wireBytes;
        ++injected_[static_cast<int>(ChaosSite::Disconnect)];
    }
    return plan;
}

ServeStream::Plan
ServeStream::drawRecvPlan()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Plan plan;
    // The receive path only injects faults it can act on locally:
    // a delay before reading, or dropping the connection outright.
    plan.delay = rng_.chance(config_.pDelay);
    plan.disconnect = rng_.chance(config_.pDisconnect);
    if (plan.delay) {
        plan.delayMs = config_.delayMs * rng_.uniformReal();
        ++injected_[static_cast<int>(ChaosSite::Delay)];
    }
    if (plan.disconnect)
        ++injected_[static_cast<int>(ChaosSite::Disconnect)];
    return plan;
}

bool
ServeStream::writeFrame(int fd, const std::string &payload,
                        std::string &error)
{
    ByteWriter header;
    header.u32(static_cast<uint32_t>(payload.size()));
    header.u64(hashBytes(payload));
    std::string wire = header.take();
    wire.append(payload);

    if (!chaosOn_)
        return sendAll(fd, wire.data(), wire.size(), error);

    const Plan plan = drawSendPlan(wire.size());
    if (plan.delay)
        sleepMs(plan.delayMs);
    if (plan.bitFlip)
        wire[plan.flipBit / 8] ^=
            static_cast<char>(1u << (plan.flipBit % 8));
    if (plan.disconnect) {
        // Send a prefix of the frame, then tear the socket down: the
        // peer sees a frame that starts and never finishes.
        if (plan.cutAt > 0 &&
            !sendAll(fd, wire.data(), plan.cutAt, error))
            return false;
        ::shutdown(fd, SHUT_RDWR);
        error = "chaos: injected disconnect mid-frame";
        return false;
    }
    if (plan.stall) {
        const size_t half = wire.size() / 2;
        if (!sendAll(fd, wire.data(), half, error))
            return false;
        sleepMs(config_.stallMs);
        return sendAll(fd, wire.data() + half, wire.size() - half,
                       error);
    }
    if (plan.partial) {
        // Dribble the frame in tiny chunks to exercise reassembly.
        std::lock_guard<std::mutex> lock(mutex_);
        size_t sent = 0;
        while (sent < wire.size()) {
            const size_t chunk =
                std::min(wire.size() - sent,
                         static_cast<size_t>(rng_.uniformInt(1, 23)));
            if (!sendAll(fd, wire.data() + sent, chunk, error))
                return false;
            sent += chunk;
        }
        return true;
    }
    return sendAll(fd, wire.data(), wire.size(), error);
}

bool
ServeStream::readFrame(int fd, std::string &payload, uint32_t maxBytes,
                       double midFrameTimeoutMs, std::string &error,
                       bool *cleanEof, bool *timedOut)
{
    if (cleanEof)
        *cleanEof = false;
    if (timedOut)
        *timedOut = false;

    if (chaosOn_) {
        const Plan plan = drawRecvPlan();
        if (plan.delay)
            sleepMs(plan.delayMs);
        if (plan.disconnect) {
            ::shutdown(fd, SHUT_RDWR);
            error = "chaos: injected disconnect before read";
            return false;
        }
    }

    // The first byte of a frame may take arbitrarily long (an idle
    // peer is healthy); everything after it is on the clock.
    char header[serveFrameOverhead];
    if (!recvAll(fd, header, 1, error, cleanEof))
        return false;
    if (!recvAllDeadline(fd, header + 1, sizeof(header) - 1,
                         midFrameTimeoutMs, error, nullptr, timedOut))
        return false;

    ByteReader fields(std::string_view(header, sizeof(header)));
    uint32_t size = 0;
    uint64_t checksum = 0;
    fields.u32(size);
    fields.u64(checksum);
    if (size > maxBytes) {
        error = "frame of " + std::to_string(size) +
                " bytes exceeds the " + std::to_string(maxBytes) +
                "-byte ceiling";
        return false;
    }
    payload.resize(size);
    if (size > 0 &&
        !recvAllDeadline(fd, payload.data(), size, midFrameTimeoutMs,
                         error, nullptr, timedOut))
        return false;
    if (hashBytes(payload) != checksum) {
        error = "frame checksum mismatch";
        return false;
    }
    return true;
}

} // namespace cams
