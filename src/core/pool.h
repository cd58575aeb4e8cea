/**
 * @file
 * The fan-out the Experiment facade runs build and simulation cells
 * on.
 *
 * Each runOnPool call starts its own executor threads and joins them
 * before it returns; nothing persists between calls. Work is a flat
 * job index handed out by a shared atomic counter; matrix drivers map
 * the index to a cell in the callback, and the deterministic record
 * slots make the output independent of scheduling. The calling thread
 * is one of the executors, so a nested call cannot deadlock: it has
 * its own threads and its caller drains it.
 */
#ifndef STOS_CORE_POOL_H
#define STOS_CORE_POOL_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace stos::core {

/**
 * Resolve a jobs request against the machine and the work: 0 means
 * hardware concurrency; never more executors than hardware threads or
 * jobs; at least 1. This is the number of executors runOnPool uses.
 */
inline unsigned
resolveJobs(unsigned requested, size_t nJobs)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsigned jobs = requested == 0 || requested > hw ? hw : requested;
    if (jobs > nJobs)
        jobs = static_cast<unsigned>(nJobs ? nJobs : 1);
    return jobs;
}

/**
 * Run fn(k) for every k in [0, nJobs) on resolveJobs(jobs, nJobs)
 * executors: the calling thread plus one fresh thread per extra
 * executor. `fn` must confine its effects to slot k (or be internally
 * synchronized, as the StageCache is).
 *
 * An exception escaping `fn` does not call std::terminate: after the
 * first one no executor claims a new job, and it is rethrown on the
 * caller once every executor has been joined. A thread that fails to
 * start counts as that first exception.
 */
template <typename Fn>
inline void
runOnPool(unsigned jobs, size_t nJobs, Fn &&fn)
{
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorMu;
    auto fail = [&] {
        std::lock_guard<std::mutex> lock(errorMu);
        if (!error)
            error = std::current_exception();
        failed = true;
    };
    auto drain = [&] {
        while (!failed) {
            const size_t k = next++;
            if (k >= nJobs)
                return;
            try {
                fn(k);
            } catch (...) {
                fail();
            }
        }
    };
    const unsigned executors = resolveJobs(jobs, nJobs);
    {
        std::vector<std::jthread> threads;
        try {
            for (unsigned t = 1; t < executors; ++t)
                threads.emplace_back(drain);
        } catch (...) {
            fail();
        }
        drain();
    }  // joins every executor
    if (error)
        std::rethrow_exception(error);
}

} // namespace stos::core

#endif
