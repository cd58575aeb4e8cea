/**
 * @file
 * The shared worker pool the Experiment facade fans build and
 * simulation cells over.
 *
 * WorkerPool owns a fixed set of persistent threads created once and
 * reused across batches, so a process that runs many matrices pays
 * for thread creation once. Work is a flat job index distributed by a
 * shared counter; matrix drivers pass cell index -> (app, config)
 * mappings in the callback, and the deterministic record slots make
 * the output independent of scheduling.
 *
 * The submitting thread always participates in draining its own
 * batch, which gives two properties for free:
 *
 *  - Nested submission cannot deadlock: a pool worker whose job
 *    submits a child batch drains that batch itself even when every
 *    other worker is busy.
 *  - A `width` cap (the --jobs request) bounds the total number of
 *    threads executing a batch — pool workers beyond the cap simply
 *    never join it.
 *
 * The first exception thrown by a job stops further claiming and is
 * rethrown on the submitting thread after every in-flight job of the
 * batch has completed.
 */
#ifndef STOS_CORE_POOL_H
#define STOS_CORE_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stos::core {

/**
 * Resolve a jobs request against the machine and the work: 0 means
 * hardware concurrency; never more threads than jobs; at least 1.
 */
inline unsigned
resolveJobs(unsigned requested, size_t nJobs)
{
    unsigned jobs = requested;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (jobs > nJobs)
        jobs = static_cast<unsigned>(nJobs ? nJobs : 1);
    return jobs;
}

/** Persistent thread pool; see the file comment for the contract. */
class WorkerPool {
  public:
    /**
     * `threads` = number of persistent workers; 0 means hardware
     * concurrency minus one (the submitting thread is the missing
     * executor). A pool with zero workers is valid — every batch is
     * then drained entirely by its submitter.
     */
    explicit WorkerPool(unsigned threads = 0)
    {
        if (threads == 0) {
            unsigned hw = std::thread::hardware_concurrency();
            threads = hw > 1 ? hw - 1 : 0;
        }
        workers_.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Persistent worker threads (not counting submitters). */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run fn(k) for every k in [0, nJobs) with at most `width`
     * concurrent executors (including the calling thread, which
     * participates until the batch drains). Returns when every job
     * has completed; rethrows the first job exception.
     */
    void
    run(size_t nJobs, unsigned width,
        const std::function<void(size_t)> &fn)
    {
        if (nJobs == 0)
            return;
        if (width <= 1 || nJobs == 1) {
            // Serial fast path: no queueing, exceptions propagate
            // directly (identical outcome to a width-1 batch).
            for (size_t k = 0; k < nJobs; ++k)
                fn(k);
            return;
        }
        auto b = std::make_shared<Batch>();
        b->fn = &fn;
        b->nJobs = nJobs;
        b->width = width;
        std::unique_lock<std::mutex> lock(mu_);
        b->claimants = 1;  // the caller
        queue_.push_back(b);
        cv_.notify_all();
        drain(*b, lock);
        // Wait for in-flight jobs claimed by pool workers.
        b->done.wait(lock, [&] { return b->claimants == 0; });
        // Every claimant has left the batch; if it is still queued
        // (saturation never reached — e.g. a zero-worker pool, or an
        // early failure), unlink it.
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (*it == b) {
                queue_.erase(it);
                break;
            }
        }
        if (b->error)
            std::rethrow_exception(b->error);
    }

  private:
    struct Batch {
        const std::function<void(size_t)> *fn = nullptr;
        size_t nJobs = 0;
        unsigned width = 1;      ///< max concurrent executors
        unsigned claimants = 0;  ///< executors currently inside
        size_t next = 0;         ///< next unclaimed job index
        bool failed = false;
        std::exception_ptr error;
        std::condition_variable done;  ///< claimants reached 0
    };

    /**
     * Claim-and-execute loop, shared by workers and submitters. The
     * caller must hold `lock` and have registered itself in
     * b.claimants; returns with the lock held, after deregistering.
     * Workers go straight back to the queue afterwards; only the
     * submitter waits for claimants to reach zero.
     */
    void
    drain(Batch &b, std::unique_lock<std::mutex> &lock)
    {
        while (!b.failed && b.next < b.nJobs) {
            size_t k = b.next++;
            lock.unlock();
            try {
                (*b.fn)(k);
                lock.lock();
            } catch (...) {
                lock.lock();
                if (!b.error)
                    b.error = std::current_exception();
                b.failed = true;
            }
        }
        if (--b.claimants == 0)
            b.done.notify_all();
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            std::shared_ptr<Batch> b = queue_.front();
            ++b->claimants;
            // A batch leaves the queue once it cannot absorb another
            // executor: saturated, fully claimed, or failed.
            if (b->claimants >= b->width || b->next >= b->nJobs ||
                b->failed)
                queue_.pop_front();
            drain(*b, lock);
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Batch>> queue_;
    std::vector<std::thread> workers_;
    bool stop_ = false;
};

/**
 * The process-wide pool. Created on first use and joined at exit; the
 * matrix drivers and the fuzzer share these workers.
 */
inline WorkerPool &
sharedPool()
{
    static WorkerPool pool;
    return pool;
}

/**
 * Run fn(k) for every k in [0, nJobs) with at most `jobs` concurrent
 * executors, on the shared persistent pool. `fn` must confine its
 * effects to slot k (or be internally synchronized, as the StageCache
 * is).
 *
 * An exception escaping `fn` does not call std::terminate: the first
 * exception stops further claiming and is rethrown on the caller
 * after in-flight jobs complete.
 */
template <typename Fn>
inline void
runOnPool(unsigned jobs, size_t nJobs, Fn &&fn)
{
    if (nJobs == 0)
        return;
    if (jobs <= 1) {
        for (size_t k = 0; k < nJobs; ++k)
            fn(k);
        return;
    }
    std::function<void(size_t)> call = std::forward<Fn>(fn);
    sharedPool().run(nJobs, jobs, call);
}

} // namespace stos::core

#endif
