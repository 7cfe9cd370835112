#include "common/net.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cancel.hpp"

namespace nnbaton {

namespace {

using SteadyClock = std::chrono::steady_clock;

/** now + @p seconds; an infinite (or absurdly long) wait never
 *  expires (steadyDuration()). */
SteadyClock::time_point
deadlineAfter(double seconds)
{
    return SteadyClock::now() + steadyDuration(seconds);
}

double
remainingSeconds(SteadyClock::time_point deadline)
{
    return std::chrono::duration<double>(deadline - SteadyClock::now())
        .count();
}

/** Poll @p fd for @p events until the deadline; OK when ready. */
Status
waitReady(int fd, short events, SteadyClock::time_point deadline,
          const char *what)
{
    for (;;) {
        const double remaining = remainingSeconds(deadline);
        if (remaining <= 0)
            return errDeadlineExceeded("%s timed out", what);
        pollfd p{};
        p.fd = fd;
        p.events = events;
        // Waits longer than an hour re-poll hourly (no int overflow).
        const int timeoutMs =
            static_cast<int>(std::min(remaining, 3600.0) * 1000) + 1;
        const int ready = ::poll(&p, 1, timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return errUnavailable("%s: poll: %s", what,
                                  std::strerror(errno));
        }
        if (ready == 0)
            continue; // re-check the deadline
        if (p.revents & (POLLERR | POLLNVAL)) {
            return errUnavailable("%s: socket error", what);
        }
        return Status::okStatus();
    }
}

Status
setNonBlocking(int fd, bool enable)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return errUnavailable("fcntl: %s", std::strerror(errno));
    const int want = enable ? (flags | O_NONBLOCK)
                            : (flags & ~O_NONBLOCK);
    if (::fcntl(fd, F_SETFL, want) < 0)
        return errUnavailable("fcntl: %s", std::strerror(errno));
    return Status::okStatus();
}

/** Build @p endpoint's socket address into @p storage; returns its
 *  length.  Dotted-quad IPv4 only (plus the localhost convenience):
 *  the fabric addresses workers by IP, keeping the tree free of a
 *  resolver dependency. */
StatusOr<socklen_t>
endpointAddress(const Endpoint &endpoint, sockaddr_storage &storage)
{
    storage = sockaddr_storage{};
    if (endpoint.tcp) {
        auto *addr = reinterpret_cast<sockaddr_in *>(&storage);
        addr->sin_family = AF_INET;
        addr->sin_port = htons(static_cast<uint16_t>(endpoint.port));
        const char *host = endpoint.host == "localhost"
                               ? "127.0.0.1"
                               : endpoint.host.c_str();
        if (::inet_pton(AF_INET, host, &addr->sin_addr) != 1) {
            return errInvalidArgument(
                "endpoint '%s': expected a dotted-quad IPv4 address",
                endpoint.host.c_str());
        }
        return static_cast<socklen_t>(sizeof(sockaddr_in));
    }
    auto *addr = reinterpret_cast<sockaddr_un *>(&storage);
    addr->sun_family = AF_UNIX;
    if (endpoint.unixPath.empty() ||
        endpoint.unixPath.size() >= sizeof(addr->sun_path)) {
        return errInvalidArgument(
            "socket path must be 1..%zu bytes, got %zu",
            sizeof(addr->sun_path) - 1, endpoint.unixPath.size());
    }
    std::memcpy(addr->sun_path, endpoint.unixPath.c_str(),
                endpoint.unixPath.size() + 1);
    return static_cast<socklen_t>(sizeof(sockaddr_un));
}

} // namespace

std::string
Endpoint::toString() const
{
    if (!tcp)
        return unixPath;
    char buf[64];
    std::snprintf(buf, sizeof(buf), ":%d", port);
    return host + buf;
}

StatusOr<Endpoint>
parseEndpoint(const std::string &text)
{
    if (text.empty())
        return errInvalidArgument("empty endpoint");
    Endpoint ep;
    const size_t colon = text.rfind(':');
    // A path may legitimately contain no colon; a colon followed by
    // digits marks a TCP endpoint ("host:7070" or ":7070").
    if (colon != std::string::npos && colon + 1 < text.size()) {
        bool digits = true;
        for (size_t i = colon + 1; i < text.size(); ++i) {
            if (text[i] < '0' || text[i] > '9') {
                digits = false;
                break;
            }
        }
        if (digits && text.find('/') == std::string::npos) {
            const long port = std::strtol(text.c_str() + colon + 1,
                                          nullptr, 10);
            // Port 0 is allowed: binding ":0" asks the kernel for a
            // free port (connectEndpoint still rejects it).
            if (port < 0 || port > 65535) {
                return errInvalidArgument(
                    "endpoint '%s': port out of range", text.c_str());
            }
            ep.tcp = true;
            ep.host = colon == 0 ? std::string("127.0.0.1")
                                 : text.substr(0, colon);
            ep.port = static_cast<int>(port);
            return ep;
        }
    }
    ep.tcp = false;
    ep.unixPath = text;
    return ep;
}

StatusOr<int>
connectEndpoint(const Endpoint &endpoint, double timeoutSeconds)
{
    const auto deadline = deadlineAfter(timeoutSeconds);
    if (endpoint.tcp && endpoint.port < 1)
        return errInvalidArgument("cannot connect to port %d",
                                  endpoint.port);
    sockaddr_storage storage;
    const StatusOr<socklen_t> addrLen = endpointAddress(endpoint, storage);
    if (!addrLen.ok())
        return addrLen.status();
    const int fd = ::socket(storage.ss_family, SOCK_STREAM, 0);
    if (fd < 0)
        return errUnavailable("socket: %s", std::strerror(errno));

    Status s = setNonBlocking(fd, true);
    if (!s.ok()) {
        ::close(fd);
        return s;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&storage),
                  addrLen.value()) != 0) {
        if (errno != EINPROGRESS && errno != EAGAIN) {
            const Status err =
                errUnavailable("connect %s: %s",
                               endpoint.toString().c_str(),
                               std::strerror(errno));
            ::close(fd);
            return err;
        }
        s = waitReady(fd, POLLOUT, deadline, "connect");
        if (!s.ok()) {
            ::close(fd);
            return s.withContext("connect " + endpoint.toString());
        }
        int soError = 0;
        socklen_t len = sizeof(soError);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) !=
                0 ||
            soError != 0) {
            const Status err = errUnavailable(
                "connect %s: %s", endpoint.toString().c_str(),
                std::strerror(soError ? soError : errno));
            ::close(fd);
            return err;
        }
    }
    s = setNonBlocking(fd, false);
    if (!s.ok()) {
        ::close(fd);
        return s;
    }
    if (endpoint.tcp) {
        // Small frames; latency matters more than throughput.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
}

StatusOr<int>
listenEndpoint(const Endpoint &endpoint)
{
    sockaddr_storage storage;
    const StatusOr<socklen_t> addrLen = endpointAddress(endpoint, storage);
    if (!addrLen.ok())
        return addrLen.status();
    const int fd =
        ::socket(storage.ss_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return errUnavailable("socket: %s", std::strerror(errno));
    if (endpoint.tcp) {
        // Restarted workers rebind the same port without waiting out
        // TIME_WAIT; the coordinator retries connect anyway.
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    } else {
        ::unlink(endpoint.unixPath.c_str()); // a stale socket file
    }
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&storage),
               addrLen.value()) != 0) {
        const Status err = errUnavailable(
            "bind %s: %s", endpoint.toString().c_str(),
            std::strerror(errno));
        ::close(fd);
        return err;
    }
    if (::listen(fd, 128) != 0) {
        const Status err = errUnavailable(
            "listen %s: %s", endpoint.toString().c_str(),
            std::strerror(errno));
        ::close(fd);
        if (!endpoint.tcp)
            ::unlink(endpoint.unixPath.c_str());
        return err;
    }
    return fd;
}

int
boundPort(int fd)
{
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) !=
            0 ||
        bound.ss_family != AF_INET)
        return -1;
    return ntohs(reinterpret_cast<const sockaddr_in *>(&bound)->sin_port);
}

void
LineChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
    scanned_ = 0;
}

Status
LineChannel::sendLine(const std::string &line, double timeoutSeconds)
{
    if (fd_ < 0)
        return errFailedPrecondition("sendLine on a closed channel");
    const auto deadline = deadlineAfter(timeoutSeconds);
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
        // MSG_DONTWAIT + poll keeps the deadline authoritative even
        // against a peer that stops draining its receive window.
        const ssize_t n =
            ::send(fd_, framed.data() + off, framed.size() - off,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                Status s = waitReady(fd_, POLLOUT, deadline, "send");
                if (!s.ok())
                    return s;
                continue;
            }
            return errUnavailable("send: %s", std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
    return Status::okStatus();
}

StatusOr<std::string>
LineChannel::recvLine(double timeoutSeconds)
{
    if (fd_ < 0)
        return errFailedPrecondition("recvLine on a closed channel");
    const auto deadline = deadlineAfter(timeoutSeconds);
    for (;;) {
        const size_t nl = buffer_.find('\n', scanned_);
        if ((nl == std::string::npos ? buffer_.size() : nl) >
            kMaxLineBytes) {
            buffer_.clear();
            scanned_ = 0;
            return errInvalidArgument("line exceeds %zu bytes",
                                      kMaxLineBytes);
        }
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            scanned_ = 0;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }
        scanned_ = buffer_.size();
        Status s = waitReady(fd_, POLLIN, deadline, "recv");
        if (!s.ok())
            return s;
        char chunk[4096];
        const ssize_t n =
            ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return errUnavailable("recv: %s", std::strerror(errno));
        }
        if (n == 0) {
            return errUnavailable(
                "peer closed the connection mid-line");
        }
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

StatusOr<LineChannel>
connectLineChannel(const std::string &endpoint, double timeoutSeconds)
{
    StatusOr<Endpoint> parsed = parseEndpoint(endpoint);
    if (!parsed.ok())
        return parsed.status();
    StatusOr<int> fd = connectEndpoint(parsed.value(), timeoutSeconds);
    if (!fd.ok())
        return fd.status();
    return LineChannel(fd.value());
}

} // namespace nnbaton
