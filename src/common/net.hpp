/**
 * @file
 * The one socket layer: every networked caller addresses, listens
 * and frames lines through it — the serve daemon's listeners and
 * connections, its clients (`nn-baton request` / `stats`), and the
 * fabric coordinator's worker connections.
 *
 * Two endpoint families, one string syntax:
 *
 *  - "host:port" (or ":port" for localhost) — TCP.  The fabric uses
 *    TCP so a sweep can shard across machines.
 *  - anything else — a filesystem path to a Unix-domain socket.
 *
 * Connections and line I/O are Status-based and timeout-bounded: a
 * peer that hangs mid-frame turns into errDeadlineExceeded at the
 * caller instead of wedging a thread forever, which is what lets the
 * coordinator's lease machinery treat a stalled worker exactly like a
 * crashed one.
 */

#ifndef NNBATON_COMMON_NET_HPP
#define NNBATON_COMMON_NET_HPP

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace nnbaton {

/** A parsed endpoint: either a TCP host/port or a Unix socket path. */
struct Endpoint
{
    bool tcp = false;
    std::string host;     //!< TCP only; defaults to 127.0.0.1
    int port = 0;         //!< TCP only
    std::string unixPath; //!< Unix only

    /** Canonical display form ("127.0.0.1:7070" or the path). */
    std::string toString() const;
};

/**
 * Parse "host:port", ":port" (localhost) or a Unix socket path.
 * Rejects empty strings and out-of-range ports.
 */
StatusOr<Endpoint> parseEndpoint(const std::string &text);

/**
 * Connect to @p endpoint with a wall-clock timeout (non-blocking
 * connect + poll).  Returns the connected fd; the fd is left in
 * blocking mode.  errUnavailable on refusal/resolution failure,
 * errDeadlineExceeded on timeout.
 */
StatusOr<int> connectEndpoint(const Endpoint &endpoint,
                              double timeoutSeconds);

/**
 * Bind and listen on @p endpoint; returns the non-blocking listening
 * fd.  A Unix endpoint replaces a stale socket file at its path (a
 * live daemon there loses its endpoint, so give each daemon its own
 * path); TCP port 0 asks the kernel for a free port (see boundPort()).
 * errInvalidArgument on a bad address, errUnavailable when the bind
 * or listen fails.
 */
StatusOr<int> listenEndpoint(const Endpoint &endpoint);

/** The local TCP port @p fd is bound to, or -1 when it has none. */
int boundPort(int fd);

/** The longest line a LineChannel accepts, newline excluded: 64 MiB,
 *  about 9x the fig15 DarkNet-19 `pre` export (6.96 MB) and 3x the
 *  largest `pre` export any MAC budget yields (21.5 MB). */
constexpr size_t kMaxLineBytes = size_t{64} << 20;

/**
 * A buffered newline-delimited line channel over a connected socket.
 * Owns the fd.  All operations are bounded by per-call timeouts, so
 * a dead or stalled peer always surfaces as a Status instead of a
 * hang, and every line by kMaxLineBytes, so a peer that never sends
 * a newline cannot grow the buffer without limit.
 */
class LineChannel
{
  public:
    LineChannel() = default;
    /** Takes ownership of a connected @p fd. */
    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel() { close(); }

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;
    LineChannel(LineChannel &&other) noexcept { swap(other); }
    LineChannel &operator=(LineChannel &&other) noexcept
    {
        close();
        swap(other);
        return *this;
    }

    bool connected() const { return fd_ >= 0; }

    /** Close the socket (idempotent); pending buffer is dropped. */
    void close();

    /**
     * Send @p line plus a trailing newline, tolerating short writes.
     * errUnavailable on a socket error (peer hung up),
     * errDeadlineExceeded when @p timeoutSeconds elapses first (an
     * infinite timeout never elapses).
     */
    Status sendLine(const std::string &line, double timeoutSeconds);

    /**
     * Receive one newline-terminated line (without the newline).
     * errUnavailable when the peer closes mid-line,
     * errDeadlineExceeded when @p timeoutSeconds elapses first (the
     * partial line stays buffered for the next call), and
     * errInvalidArgument once the line exceeds kMaxLineBytes; after
     * that error the channel is out of frame and should be closed.
     */
    StatusOr<std::string> recvLine(double timeoutSeconds);

  private:
    void swap(LineChannel &other) noexcept
    {
        std::swap(fd_, other.fd_);
        std::swap(buffer_, other.buffer_);
        std::swap(scanned_, other.scanned_);
    }

    int fd_ = -1;
    std::string buffer_;
    size_t scanned_ = 0; //!< leading buffer_ bytes known to hold no '\n'
};

/** parseEndpoint + connectEndpoint + LineChannel in one call. */
StatusOr<LineChannel> connectLineChannel(const std::string &endpoint,
                                         double timeoutSeconds);

} // namespace nnbaton

#endif // NNBATON_COMMON_NET_HPP
