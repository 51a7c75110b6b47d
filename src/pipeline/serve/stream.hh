/**
 * @file
 * The serve wire's integrity-and-chaos layer: checksummed frames
 * plus a seeded fault injector for the socket boundary.
 *
 * Framing. Protocol v2 frames are [u32 length | u64 checksum |
 * payload]: the checksum is hashBytes() of the payload, verified on
 * every read. Since v5 that is the word-at-a-time hash, each of whose
 * steps is a bijection, so two payloads of one length that differ in
 * a single bit never share a checksum (see hash.hh). A flipped bit
 * anywhere on the wire -- payload, length prefix or the checksum
 * itself -- is therefore *detected*: it surfaces as a checksum
 * mismatch, a mis-framed read that the mid-frame deadline cuts short,
 * or an oversized-length rejection, never as silently corrupted
 * message bytes. That detection is what
 * lets the retry client treat every torn or corrupted frame as a
 * connection failure and re-submit idempotently.
 *
 * Mid-frame deadlines. readFrame() waits for the *first* byte of a
 * frame without any timeout (an idle peer is healthy), but once a
 * frame has started, every subsequent byte must arrive within the
 * caller's budget. A peer that dribbles one byte and stalls -- the
 * classic slow-loris shape -- costs one read timeout and a closed
 * connection, never a wedged reader thread.
 *
 * Chaos. ChaosStream mirrors support/fault's FaultInjector at the
 * socket layer: a seeded, deterministic coin-flip stream consulted at
 * named sites on each frame send/receive. Sites: inject a delay,
 * split the send into byte-dribbles, flip one random bit of the wire
 * image, stall mid-frame (trips the peer's read deadline), or shut
 * the socket down partway through a frame (abrupt disconnect). One
 * coin is drawn per site per frame, so a stream's fault pattern is a
 * pure function of its config and frame sequence. Each ChaosStream
 * serializes its draws internally and may be shared by the writer
 * threads of one connection; cross-thread interleaving of *frames*
 * still varies run to run, which is exactly the nondeterminism the
 * recovery machinery must absorb.
 */

#ifndef CAMS_PIPELINE_SERVE_STREAM_HH
#define CAMS_PIPELINE_SERVE_STREAM_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "support/random.hh"

namespace cams
{

/** Bytes of framing around every payload (u32 length + u64 hash). */
constexpr size_t serveFrameOverhead = 12;

/** Named fault sites of the socket chaos layer. */
enum class ChaosSite
{
    Delay,        ///< sleep before touching the socket
    PartialWrite, ///< dribble the frame in tiny chunks
    BitFlip,      ///< flip one random bit of the wire image
    Stall,        ///< send half the frame, sleep, send the rest
    Disconnect,   ///< shut the socket down mid-frame
};

/** Number of ChaosSite values. */
constexpr int numChaosSites = 5;

/** Stable snake_case name of a chaos site. */
const char *chaosSiteName(ChaosSite site);

/** Per-site trip probabilities plus the coin-flip seed. */
struct ChaosConfig
{
    /** Seed of the stream's private coin-flip sequence. */
    uint64_t seed = 1;

    double pDelay = 0.0;        ///< Delay trip probability
    double delayMs = 2.0;       ///< maximum injected delay
    double pPartialWrite = 0.0; ///< PartialWrite trip probability
    double pBitFlip = 0.0;      ///< BitFlip trip probability
    double pStall = 0.0;        ///< Stall trip probability
    double stallMs = 50.0;      ///< mid-frame stall length
    double pDisconnect = 0.0;   ///< Disconnect trip probability

    /** True when any site can trip at all. */
    bool any() const;

    /** Same probability at every site (convenience for CLIs). */
    static ChaosConfig uniform(double p, uint64_t seed = 1);
};

/**
 * Frame codec over one socket, with optional chaos injection. A
 * default-constructed stream is a plain, fault-free codec; call
 * enableChaos() (before first use) to arm the injector.
 */
class ServeStream
{
  public:
    ServeStream() = default;

    /** Arms the fault injector with the given config. */
    void enableChaos(const ChaosConfig &config);

    /** True when the injector is armed. */
    bool chaosEnabled() const { return chaosOn_; }

    /**
     * Sends one checksummed frame. Under chaos this may delay,
     * dribble, corrupt or abort the send; an injected disconnect
     * returns false with a "chaos:" error, exactly like a real torn
     * connection.
     */
    bool writeFrame(int fd, const std::string &payload,
                    std::string &error);

    /**
     * Reads one checksummed frame. Waits for the first byte without
     * a deadline; once the frame has started, every byte must arrive
     * within @p midFrameTimeoutMs (0 = no deadline). On a deadline
     * expiry @p timedOut (when given) is set alongside the error.
     * A checksum mismatch or an over-@p maxBytes length is an error
     * with the frame consumed-as-far-as-possible; @p cleanEof
     * distinguishes an orderly close between frames.
     */
    bool readFrame(int fd, std::string &payload, uint32_t maxBytes,
                   double midFrameTimeoutMs, std::string &error,
                   bool *cleanEof = nullptr, bool *timedOut = nullptr);

    /** Faults injected so far, across all sites. */
    long injectedFaults() const;

    /** Faults injected at one site so far. */
    long injectedAt(ChaosSite site) const;

  private:
    struct Plan
    {
        bool delay = false;
        double delayMs = 0.0;
        bool partial = false;
        bool bitFlip = false;
        size_t flipBit = 0;
        bool stall = false;
        bool disconnect = false;
        size_t cutAt = 0;
    };

    /** Draws this frame's coins (and value rolls) under the mutex. */
    Plan drawSendPlan(size_t wireBytes);
    Plan drawRecvPlan();

    mutable std::mutex mutex_;
    Rng rng_;
    ChaosConfig config_;
    bool chaosOn_ = false;
    long injected_[numChaosSites] = {};
};

} // namespace cams

#endif // CAMS_PIPELINE_SERVE_STREAM_HH
