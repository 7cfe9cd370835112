#include "daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "serve/server.hpp"

extern char **environ;

namespace perfbench {

namespace {

/** Bound on any single wait on a daemon, so a hung child cannot stall
 *  a run past its deadline. */
constexpr double kDaemonWaitSeconds = 30.0;

/** Read @p fd until its first newline (@p lineOnly) or end of file,
 *  for at most the wait bound. */
std::string
readUntil(int fd, bool lineOnly)
{
    std::string text;
    const double deadline = nowSec() + kDaemonWaitSeconds;
    while (!lineOnly || text.find('\n') == std::string::npos) {
        const double left = deadline - nowSec();
        if (left <= 0)
            break;
        pollfd p{fd, POLLIN, 0};
        if (poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0)
            break;
        char buf[256];
        const ssize_t n = read(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    return text;
}

/** Start `@p self @p args...` with its stdout on a pipe returned in
 *  @p stdoutFd and its stderr appended to @p stderrLog. */
pid_t
spawnSelf(const std::string &self, const std::vector<std::string> &args,
          const std::string &stderrLog, int *stdoutFd)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     stderrLog.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char *> argv = {const_cast<char *>(self.c_str())};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("spawn " + self + ": " +
                                 std::string(strerror(rc)));
    }
    *stdoutFd = fds[0];
    return pid;
}

std::string
stringField(const std::string &line, const char *key)
{
    const size_t at = line.find(key);
    if (at == std::string::npos)
        return "";
    const size_t from = at + std::strlen(key);
    return line.substr(from, line.find('"', from) - from);
}

double
numberField(const std::string &line, const char *key)
{
    const size_t at = line.find(key);
    return at == std::string::npos
               ? 0.0
               : std::stod(line.substr(at + std::strlen(key)));
}

} // namespace

std::vector<AccessEntry>
readAccessLog(const std::string &path)
{
    std::vector<AccessEntry> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        AccessEntry e;
        e.op = stringField(line, "\"op\":\"");
        e.outcome = stringField(line, "\"outcome\":\"");
        e.durationUs = numberField(line, "\"durationUs\":");
        out.push_back(std::move(e));
    }
    return out;
}

int
runDaemon(int lanes, const std::string &accessLog)
{
    const double t0 = nowSec();
    // Never outlive the benchmark that started this daemon.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1)
        return 1;
    nnbaton::serve::ServerOptions options;
    options.tcpAddress = "127.0.0.1:0";
    options.threads = lanes;
    options.service.accessLogPath = accessLog;
    nnbaton::serve::Server server(options);
    const nnbaton::Status started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "daemon: %s\n", started.toString().c_str());
        return 1;
    }
    std::printf("port %d start_s %.9f\n", server.tcpPort(),
                nowSec() - t0);
    std::fflush(stdout);
    server.run();
    return 0;
}

DaemonProcess::DaemonProcess(const std::string &self, int lanes,
                             const std::string &accessLog,
                             const std::string &stderrLog)
{
    int out = -1;
    pid_ = spawnSelf(self,
                     {"--daemon", "--lanes", std::to_string(lanes),
                      "--access-log", accessLog},
                     stderrLog, &out);
    const std::string line = readUntil(out, true);
    close(out);
    if (std::sscanf(line.c_str(), "port %d start_s %lf", &port_,
                    &startSec_) != 2 ||
        port_ <= 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        throw std::runtime_error("daemon did not report a port (see " +
                                 stderrLog + ")");
    }
}

DaemonProcess::~DaemonProcess()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
}

std::string
DaemonProcess::endpoint() const
{
    return "127.0.0.1:" + std::to_string(port_);
}

DaemonUsage
DaemonProcess::stop()
{
    DaemonUsage usage;
    if (pid_ <= 0)
        return usage;
    usage.peakRssMb = peakRssMb(pid_);
    try {
        LineClient client(port_);
        std::string reply;
        client.call("{\"op\":\"shutdown\"}", reply);
    } catch (const std::exception &) {
        // Reaped below either way.
    }
    int status = 0;
    rusage ru{};
    const double deadline = nowSec() + kDaemonWaitSeconds;
    pid_t done = 0;
    while ((done = wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
           nowSec() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (done == 0) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &ru);
    }
    pid_ = -1;
    usage.cpuSec =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
            1e-6;
    return usage;
}

std::string
runChild(const std::string &self, const std::vector<std::string> &args,
         const std::string &stderrLog)
{
    int out = -1;
    const pid_t pid = spawnSelf(self, args, stderrLog, &out);
    const std::string text = readUntil(out, false);
    close(out);
    int status = 0;
    const double deadline = nowSec() + kDaemonWaitSeconds;
    pid_t done = 0;
    while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
           nowSec() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (done == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
    }
    if (done != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("child " + self + " failed (see " +
                                 stderrLog + ")");
    return text;
}

LineClient::LineClient(int port)
{
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        throw std::runtime_error("socket: " + std::string(strerror(errno)));
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{static_cast<time_t>(kDaemonWaitSeconds), 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        const std::string err = strerror(errno);
        close(fd_);
        fd_ = -1;
        throw std::runtime_error("connect: " + err);
    }
}

LineClient::~LineClient()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
LineClient::call(const std::string &line, std::string &reply)
{
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
        char buf[65536];
        const ssize_t n = recv(fd_, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        buffer_.append(buf, static_cast<size_t>(n));
    }
    reply.assign(buffer_, 0, eol);
    buffer_.erase(0, eol + 1);
    return true;
}

} // namespace perfbench
