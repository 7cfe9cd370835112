#include "common/parallel.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nnbaton {

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
runLanes(int lanes, const std::function<void()> &fn)
{
    std::mutex m;
    std::exception_ptr error; //!< first captured exception
    const auto lane = [&] {
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lock(m);
            if (!error)
                error = std::current_exception();
        }
    };
    {
        // A jthread joins when destroyed, so the lanes already
        // started are joined even if starting the next one throws.
        std::vector<std::jthread> others;
        for (int i = 1; i < lanes; ++i)
            others.emplace_back(lane);
        lane();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace nnbaton
