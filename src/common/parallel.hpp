/**
 * @file
 * Lanes for the sweep and serving engines (no external dependencies,
 * std::jthread only).
 *
 * A lane is one long-running loop: a sweep lane claims work units
 * until the lease table drains, a serving lane accepts connections
 * until the server stops.  Each caller starts its N lanes once, so a
 * persistent pool would buy nothing.  A mapping search always runs on
 * its caller's thread.
 */

#ifndef NNBATON_COMMON_PARALLEL_HPP
#define NNBATON_COMMON_PARALLEL_HPP

#include <functional>

namespace nnbaton {

/** std::thread::hardware_concurrency with a floor of one. */
int hardwareThreads();

/**
 * Run @p fn on the calling thread and on `lanes - 1` new threads, and
 * return once every lane has finished.  `lanes <= 1` runs @p fn once,
 * inline.  The first exception any lane throws is rethrown on the
 * caller after all lanes join (a StatusError keeps its code and
 * message); it does not stop the other lanes, so a lane that throws
 * should tell them to wind down.
 *
 * @code
 *   std::atomic<int64_t> next{0};
 *   runLanes(4, [&] {
 *       for (int64_t i = next++; i < n; i = next++)
 *           out[i] = f(i);
 *   });
 * @endcode
 */
void runLanes(int lanes, const std::function<void()> &fn);

} // namespace nnbaton

#endif // NNBATON_COMMON_PARALLEL_HPP
