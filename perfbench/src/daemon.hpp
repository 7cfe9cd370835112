/**
 * @file
 * Child processes of the benchmark: `serve` daemons with the line
 * client that talks to them over loopback TCP, and one-shot runs of
 * the benchmark's own executable.
 *
 * A daemon is this same executable started with `--daemon`: it runs
 * serve::Server on 127.0.0.1 with a kernel-chosen port, reports the
 * port and its own start-up time on its stdout and serves until a
 * shutdown request.  Running it
 * as a separate process keeps its CPU time and peak memory apart from
 * the load generator's, and starts every fabric worker cold.
 */

#ifndef PERFBENCH_DAEMON_HPP
#define PERFBENCH_DAEMON_HPP

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Body of `--daemon`: serve until shut down; returns the exit code. */
int runDaemon(int lanes, const std::string &accessLog);

/** What a daemon used, read when it stops. */
struct DaemonUsage
{
    double cpuSec = 0.0;
    double peakRssMb = 0.0; //!< read just before the shutdown request
};

/** One running daemon.  Killed and reaped on destruction if still up. */
class DaemonProcess
{
  public:
    /**
     * Start `@p self --daemon` with @p lanes lanes writing its access
     * log to @p accessLog and its diagnostics to @p stderrLog, and wait
     * until it reports its port.  Throws std::runtime_error on failure.
     */
    DaemonProcess(const std::string &self, int lanes,
                  const std::string &accessLog,
                  const std::string &stderrLog);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    int port() const { return port_; }
    std::string endpoint() const;

    /** Seconds the daemon took to start listening, timed inside it. */
    double startSec() const { return startSec_; }

    /** Send a shutdown request, wait for exit and return the usage. */
    DaemonUsage stop();

  private:
    pid_t pid_ = -1;
    int port_ = -1;
    double startSec_ = 0.0;
};

/** The fields of one daemon access-log line the benchmark reads. */
struct AccessEntry
{
    std::string op;
    std::string outcome;
    double durationUs = 0.0;
};

/** Every line of the access log at @p path, in order. */
std::vector<AccessEntry> readAccessLog(const std::string &path);

/**
 * Run @p self with @p args to completion, its diagnostics appended to
 * @p stderrLog, and return what it wrote to stdout.  Throws
 * std::runtime_error when it cannot start, exits non-zero or runs
 * longer than the wait bound on any child.
 */
std::string runChild(const std::string &self,
                     const std::vector<std::string> &args,
                     const std::string &stderrLog);

/** A blocking newline-framed connection to 127.0.0.1:port. */
class LineClient
{
  public:
    /** Throws std::runtime_error when the connection fails. */
    explicit LineClient(int port);
    ~LineClient();
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /** Send @p line and read one reply line; false on a socket error. */
    bool call(const std::string &line, std::string &reply);

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HPP
