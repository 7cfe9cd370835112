#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb(int pid)
{
    std::ifstream in("/proc/" + (pid ? std::to_string(pid) : "self") +
                     "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = -1.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(4096, '\n');
    }
    return -1.0;
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double v = -1.0;
    if (!(in >> v))
        return -1.0;
    return v;
}

double
stealSec()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    long long v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return -1.0;
    for (long long &x : v) {
        if (!(in >> x))
            return -1.0;
    }
    return static_cast<double>(v[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samples.empty() || p <= 0.0 || p >= 100.0)
        return std::nullopt;
    const double n = static_cast<double>(samples.size());
    // Nearest rank: the smallest sample with at least p% at or below.
    const size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0));
    const size_t beyond = samples.size() - rank;
    if (beyond < 10)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
medianOfRepeats(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string
digestHex(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace perfbench
