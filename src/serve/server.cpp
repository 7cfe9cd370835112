#include "serve/server.hpp"

#include <cerrno>
#include <cstring>
#include <limits>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace nnbaton {
namespace serve {

namespace {

/** Listen- and connection-socket poll period for stop checks. */
constexpr int kPollMs = 50;

/** Make the service options point at the server's stop token. */
ServiceOptions
withStop(ServiceOptions service, const CancelToken *stop)
{
    service.stop = stop;
    return service;
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(withStop(options_.service, &stopToken_))
{
    stopToken_.linkParent(options_.cancel);
}

Server::~Server()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(options_.socketPath.c_str());
    }
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
}

Status
Server::start()
{
    if (options_.socketPath.empty() && options_.tcpAddress.empty()) {
        return errInvalidArgument(
            "serve needs a Unix socket path and/or a TCP address");
    }
    if (!options_.socketPath.empty()) {
        // --socket is always a path, even one that looks like
        // "host:port".
        Endpoint unixEndpoint;
        unixEndpoint.unixPath = options_.socketPath;
        StatusOr<int> fd = listenEndpoint(unixEndpoint);
        if (!fd.ok())
            return fd.status();
        listenFd_ = fd.value();
    }
    if (!options_.tcpAddress.empty()) {
        StatusOr<Endpoint> parsed = parseEndpoint(options_.tcpAddress);
        if (!parsed.ok())
            return parsed.status();
        if (!parsed.value().tcp) {
            return errInvalidArgument(
                "--tcp needs \"host:port\" or \":port\", got '%s'",
                options_.tcpAddress.c_str());
        }
        StatusOr<int> fd = listenEndpoint(parsed.value());
        if (!fd.ok())
            return fd.status();
        tcpFd_ = fd.value();
        tcpPort_ = boundPort(tcpFd_);
    }
    return Status::okStatus();
}

int64_t
Server::run()
{
    if (listenFd_ < 0 && tcpFd_ < 0)
        throwStatus(errFailedPrecondition("run() before start()"));
    // Every lane (this thread included) runs an accept loop until the
    // stop token fires, so requests on different connections are
    // answered concurrently.
    runLanes(options_.threads, [this] { acceptLoop(); });
    return service_.requestsHandled();
}

void
Server::requestStop()
{
    stopToken_.requestCancel();
}

bool
Server::stopped() const
{
    return stopToken_.cancelled();
}

void
Server::acceptLoop()
{
    // One lane polls every configured listener (Unix and/or TCP);
    // whichever becomes readable first wins the accept race.
    pollfd fds[2];
    int nfds = 0;
    if (listenFd_ >= 0)
        fds[nfds++].fd = listenFd_;
    if (tcpFd_ >= 0)
        fds[nfds++].fd = tcpFd_;

    while (!stopped()) {
        for (int i = 0; i < nfds; ++i) {
            fds[i].events = POLLIN;
            fds[i].revents = 0;
        }
        const int ready =
            ::poll(fds, static_cast<nfds_t>(nfds), kPollMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", std::strerror(errno));
            return;
        }
        if (ready == 0)
            continue;
        for (int i = 0; i < nfds; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0) {
                // Another lane won the race for this connection.
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR || errno == ECONNABORTED)
                    continue;
                warn("serve: accept: %s", std::strerror(errno));
                return;
            }
            handleConnection(LineChannel(fd));
        }
    }
}

void
Server::handleConnection(LineChannel channel)
{
    // Responses go out under the request deadline cap, so a client
    // that stops reading frees its lane; 0 means no deadline.
    const double sendSeconds =
        options_.service.maxDeadlineSeconds > 0
            ? options_.service.maxDeadlineSeconds
            : std::numeric_limits<double>::infinity();
    while (!stopped()) {
        // Read in poll-period slices so an idle connection cannot pin
        // the lane past a stop request; a partial line stays buffered.
        StatusOr<std::string> line =
            channel.recvLine(kPollMs / 1000.0);
        if (!line.ok()) {
            const StatusCode code = line.status().code();
            if (code == StatusCode::DeadlineExceeded)
                continue;
            if (code == StatusCode::InvalidArgument) {
                // An oversized line: answer with the envelope, then
                // close, since the rest of the stream is out of frame.
                (void)channel.sendLine(errorResponse(line.status()),
                                       sendSeconds);
            }
            return; // peer closed, socket error or oversized line
        }
        if (line.value().empty())
            continue;
        HandleResult result = service_.handleLine(line.value());
        if (result.dropConnection) {
            // Injected transport fault: behave like a crash — no
            // response bytes, connection torn down, and for the kill
            // flavour the whole server goes with it.
            if (result.shutdown)
                requestStop();
            return;
        }
        if (!channel.sendLine(result.response, sendSeconds).ok())
            return;
        if (result.shutdown) {
            requestStop();
            return;
        }
    }
}

} // namespace serve
} // namespace nnbaton
