/**
 * @file
 * Socket transport for the persistent evaluation service
 * (`nn-baton serve`), over common/net's listeners and line channels.
 *
 * The server binds a Unix and/or TCP socket, then run() starts N
 * accept/handle lanes with common/parallel's runLanes(): each lane
 * (the caller included) runs an accept loop, so the lanes serve
 * connections concurrently.  A request's mapping search runs on its
 * lane's thread, which keeps thread counts flat no matter how many
 * clients connect — throughput scales across requests, exactly the
 * shape a heavy-traffic deployment wants.
 *
 * Each connection carries any number of newline-delimited requests;
 * responses come back one line each, in order.  A request line over
 * kMaxLineBytes gets an INVALID_ARGUMENT envelope, then a close; a
 * response the client leaves undrained for the service's
 * maxDeadlineSeconds drops the connection.  The listening socket is
 * non-blocking and every lane polls it with a short timeout, so a
 * stop request (SIGINT / SIGTERM via the wired CancelToken, or a
 * client's {"op":"shutdown"}) is observed within one poll interval;
 * in-flight evaluations are interrupted through the linked
 * per-request tokens.
 */

#ifndef NNBATON_SERVE_SERVER_HPP
#define NNBATON_SERVE_SERVER_HPP

#include <atomic>
#include <string>

#include "common/cancel.hpp"
#include "common/net.hpp"
#include "common/status.hpp"
#include "serve/service.hpp"

namespace nnbaton {
namespace serve {

/** Transport configuration. */
struct ServerOptions
{
    /** Filesystem path of the Unix socket (empty = no Unix listener;
     *  at least one of socketPath / tcpAddress must be set). */
    std::string socketPath;

    /** TCP listen address "host:port" or ":port" (--tcp; empty = no
     *  TCP listener).  TCP is what lets a fabric coordinator shard a
     *  sweep across machines; both listeners serve the same
     *  EvalService and cache. */
    std::string tcpAddress;

    /** Accept/handle lanes (including the thread calling run());
     *  also the number of requests evaluated concurrently. */
    int threads = 2;

    /** External stop (SIGINT); the server also stops on a shutdown
     *  request.  Borrowed, may be null. */
    CancelToken *cancel = nullptr;

    ServiceOptions service;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind and listen on options.socketPath (an existing socket file
     * at that path is replaced) and/or options.tcpAddress.  Must
     * succeed before run().
     */
    Status start();

    /** After start(): the port the TCP listener actually bound
     *  (useful with ":0" — the kernel picks a free port); -1 when
     *  no TCP listener is configured. */
    int tcpPort() const { return tcpPort_; }

    /**
     * Serve until stopped; blocks the calling thread (which works as
     * one of the lanes).  Returns the number of requests handled.
     */
    int64_t run();

    /** Ask the accept lanes to wind down (thread-safe). */
    void requestStop();

    /** The underlying service (tests inspect cache counters). */
    const EvalService &service() const { return service_; }

  private:
    void acceptLoop();
    void handleConnection(LineChannel channel);
    bool stopped() const;

    ServerOptions options_;
    CancelToken stopToken_; //!< fired by requestStop / shutdown op;
                            //!< chained under options.cancel
    EvalService service_;   //!< links request tokens to stopToken_
    int listenFd_ = -1;     //!< Unix listener (-1 when disabled)
    int tcpFd_ = -1;        //!< TCP listener (-1 when disabled)
    int tcpPort_ = -1;      //!< bound TCP port after start()
};

} // namespace serve
} // namespace nnbaton

#endif // NNBATON_SERVE_SERVER_HPP
