/**
 * @file
 * Minimal Unix-domain-socket plumbing for the compile service: RAII
 * file descriptors, a blocking listener, client connect, and a
 * length-prefixed frame codec.
 *
 * The wire unit is a *frame*: a 4-byte little-endian payload length
 * followed by exactly that many payload bytes. Frames carry the
 * serve-protocol messages (pipeline/serve/proto.hh); this layer knows
 * nothing about their contents. readFrame() refuses frames larger
 * than the caller's ceiling, so a corrupt or hostile length prefix
 * costs one rejected connection, never an allocation bomb.
 *
 * All calls are blocking, retry on EINTR, and report failures as
 * errno strings through an out-parameter instead of throwing --
 * connection teardown is an ordinary event for a server, not an
 * exception. Sends use MSG_NOSIGNAL so a peer that vanished yields
 * EPIPE, not process death.
 */

#ifndef CAMS_SUPPORT_SOCKET_HH
#define CAMS_SUPPORT_SOCKET_HH

#include <cstdint>
#include <string>

namespace cams
{

/** Owns one socket file descriptor; closes it on destruction. */
class SocketFd
{
  public:
    SocketFd() = default;
    explicit SocketFd(int fd) : fd_(fd) {}
    ~SocketFd() { close(); }

    SocketFd(SocketFd &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    SocketFd &operator=(SocketFd &&other) noexcept;
    SocketFd(const SocketFd &) = delete;
    SocketFd &operator=(const SocketFd &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Takes ownership away from this object. */
    int release();

    /** Closes the descriptor now (idempotent). */
    void close();

    /**
     * Shuts down both directions without closing, unblocking any
     * thread sitting in recv()/accept() on this descriptor. Safe to
     * call from another thread.
     */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Sends the whole buffer; false with @p error set on failure. */
bool sendAll(int fd, const void *data, size_t size, std::string &error);

/**
 * Receives exactly @p size bytes. Returns false on failure; a clean
 * peer close before the first byte sets @p cleanEof true (a close
 * mid-buffer is an error, not a clean EOF).
 */
bool recvAll(int fd, void *data, size_t size, std::string &error,
             bool *cleanEof = nullptr);

/**
 * recvAll() under a wall-clock deadline: the whole buffer must
 * arrive within @p timeoutMs or the call fails with @p timedOut set
 * (when given). The wait is poll()-based and EINTR-safe, so a peer
 * that dribbles bytes slower than the budget cannot pin the calling
 * thread. @p timeoutMs <= 0 degrades to plain recvAll().
 */
bool recvAllDeadline(int fd, void *data, size_t size, double timeoutMs,
                     std::string &error, bool *cleanEof = nullptr,
                     bool *timedOut = nullptr);

/** Writes one length-prefixed frame. */
bool writeFrame(int fd, const std::string &payload, std::string &error);

/**
 * Reads one length-prefixed frame into @p payload. A frame longer
 * than @p maxBytes is a protocol error. Returns false on error or
 * EOF; @p cleanEof distinguishes an orderly close between frames.
 */
bool readFrame(int fd, std::string &payload, uint32_t maxBytes,
               std::string &error, bool *cleanEof = nullptr);

/** A bound, listening Unix-domain socket. */
class UnixListener
{
  public:
    UnixListener() = default;
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /**
     * Binds and listens on @p path, unlinking any stale socket file
     * first. Paths longer than sockaddr_un allows are rejected.
     */
    bool open(const std::string &path, std::string &error);

    /**
     * Accepts one connection (blocking). Returns a negative fd on
     * failure or after close() was called from another thread.
     */
    int acceptFd(std::string &error);

    /**
     * Unblocks acceptFd() and unlinks the socket file, but keeps the
     * fd open: a thread blocked in acceptFd() may still be reading
     * it. Close only after that thread has been joined.
     */
    void shutdown();

    /** shutdown(), then closes the fd. */
    void close();

    bool valid() const { return fd_.valid(); }
    int fd() const { return fd_.fd(); }
    const std::string &path() const { return path_; }

  private:
    SocketFd fd_;
    std::string path_;
};

/** Connects to a Unix-domain socket; invalid SocketFd on failure. */
SocketFd connectUnix(const std::string &path, std::string &error);

} // namespace cams

#endif // CAMS_SUPPORT_SOCKET_HH
