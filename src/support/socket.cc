#include "support/socket.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/time.hh"

namespace cams
{

namespace
{

std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

SocketFd &
SocketFd::operator=(SocketFd &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

int
SocketFd::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

void
SocketFd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
SocketFd::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

bool
sendAll(int fd, const void *data, size_t size, std::string &error)
{
    const char *bytes = static_cast<const char *>(data);
    size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("send");
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
recvAll(int fd, void *data, size_t size, std::string &error,
        bool *cleanEof)
{
    if (cleanEof)
        *cleanEof = false;
    char *bytes = static_cast<char *>(data);
    size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, bytes + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("recv");
            return false;
        }
        if (n == 0) {
            if (got == 0 && cleanEof) {
                *cleanEof = true;
                error = "connection closed";
            } else {
                error = "connection closed mid-frame";
            }
            return false;
        }
        got += static_cast<size_t>(n);
    }
    return true;
}

bool
recvAllDeadline(int fd, void *data, size_t size, double timeoutMs,
                std::string &error, bool *cleanEof, bool *timedOut)
{
    if (timedOut)
        *timedOut = false;
    if (timeoutMs <= 0.0)
        return recvAll(fd, data, size, error, cleanEof);
    if (cleanEof)
        *cleanEof = false;
    char *bytes = static_cast<char *>(data);
    size_t got = 0;
    const int64_t end =
        nowMicros() + static_cast<int64_t>(timeoutMs * 1000.0);
    while (got < size) {
        const int64_t leftUs = end - nowMicros();
        if (leftUs <= 0) {
            if (timedOut)
                *timedOut = true;
            error = "read timed out after " +
                    std::to_string(static_cast<long>(timeoutMs)) +
                    " ms with " + std::to_string(size - got) +
                    " bytes outstanding";
            return false;
        }
        pollfd waiter{};
        waiter.fd = fd;
        waiter.events = POLLIN;
        const int ready = ::poll(
            &waiter, 1, static_cast<int>(leftUs / 1000) + 1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("poll");
            return false;
        }
        if (ready == 0)
            continue; // deadline re-checked at the top of the loop
        // POLLHUP/POLLERR also fall through to recv(), which then
        // reports the close or the pending socket error precisely.
        const ssize_t n = ::recv(fd, bytes + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("recv");
            return false;
        }
        if (n == 0) {
            if (got == 0 && cleanEof) {
                *cleanEof = true;
                error = "connection closed";
            } else {
                error = "connection closed mid-frame";
            }
            return false;
        }
        got += static_cast<size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, const std::string &payload, std::string &error)
{
    const uint32_t size = static_cast<uint32_t>(payload.size());
    unsigned char prefix[4] = {
        static_cast<unsigned char>(size & 0xff),
        static_cast<unsigned char>((size >> 8) & 0xff),
        static_cast<unsigned char>((size >> 16) & 0xff),
        static_cast<unsigned char>((size >> 24) & 0xff),
    };
    return sendAll(fd, prefix, sizeof(prefix), error) &&
           sendAll(fd, payload.data(), payload.size(), error);
}

bool
readFrame(int fd, std::string &payload, uint32_t maxBytes,
          std::string &error, bool *cleanEof)
{
    unsigned char prefix[4];
    if (!recvAll(fd, prefix, sizeof(prefix), error, cleanEof))
        return false;
    const uint32_t size = static_cast<uint32_t>(prefix[0]) |
                          static_cast<uint32_t>(prefix[1]) << 8 |
                          static_cast<uint32_t>(prefix[2]) << 16 |
                          static_cast<uint32_t>(prefix[3]) << 24;
    if (size > maxBytes) {
        error = "frame of " + std::to_string(size) +
                " bytes exceeds the " + std::to_string(maxBytes) +
                "-byte ceiling";
        return false;
    }
    payload.resize(size);
    if (size == 0)
        return true;
    // EOF inside a declared frame is always malformed input.
    return recvAll(fd, payload.data(), size, error, nullptr);
}

UnixListener::~UnixListener()
{
    close();
}

bool
UnixListener::open(const std::string &path, std::string &error)
{
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + path + "' empty or longer than " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes";
        return false;
    }
    SocketFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoString("socket");
        return false;
    }
    ::unlink(path.c_str()); // stale socket from a crashed server
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = errnoString("bind");
        return false;
    }
    if (::listen(fd.fd(), 64) != 0) {
        error = errnoString("listen");
        return false;
    }
    fd_ = std::move(fd);
    path_ = path;
    return true;
}

int
UnixListener::acceptFd(std::string &error)
{
    for (;;) {
        const int conn = ::accept(fd_.fd(), nullptr, nullptr);
        if (conn >= 0)
            return conn;
        if (errno == EINTR)
            continue;
        error = errnoString("accept");
        return -1;
    }
}

void
UnixListener::shutdown()
{
    fd_.shutdownBoth();
    if (!path_.empty())
        ::unlink(path_.c_str());
}

void
UnixListener::close()
{
    if (!fd_.valid())
        return;
    shutdown();
    fd_.close();
}

SocketFd
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + path + "' empty or too long";
        return SocketFd();
    }
    SocketFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoString("socket");
        return SocketFd();
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
        if (::connect(fd.fd(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        if (errno == EINTR)
            continue;
        error = errnoString("connect");
        return SocketFd();
    }
}

} // namespace cams
