/**
 * @file
 * In-memory span recorder for the benchmark's traced replay. Every
 * call into a layer is wrapped in a SpanScope that records (layer,
 * call name, start, end, parent span, round, cell, thread); counts
 * are recorded at the same boundaries. Nothing is written while the
 * replay runs: spans stay in memory and are exported once, at exit,
 * as Chrome trace-event JSON (load it in chrome://tracing or
 * Perfetto).
 *
 * Parents: a span's parent is the innermost open span on its own
 * thread, unless the caller names one explicitly — that is how cell
 * spans running on pool workers hang under the phase span of the
 * submitting thread. Self time (selfTimes) is a span's duration minus
 * the union of its children's intervals, so children that ran in
 * parallel on other threads are never subtracted twice.
 */
#ifndef FIGBENCH_TRACE_H
#define FIGBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace figbench {

struct Span {
    const char *layer = "";  ///< layer name (static string)
    const char *name = "";   ///< the call this span wraps (static string)
    uint32_t id = 0;         ///< 1-based; 0 = no span
    uint32_t parent = 0;
    uint32_t tid = 0;        ///< small per-thread index
    uint32_t round = 0;
    int32_t cell = -1;       ///< matrix cell index, -1 = none
    int64_t startNs = 0, endNs = 0;
};

class Tracer {
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Round id stamped on spans and counts from now on. */
    void setRound(uint32_t r) { round_.store(r); }

    /**
     * Add `v` to counter `key` of the current round. Counts are kept
     * per round so a caller can check that every round repeats them;
     * pass whole numbers, whose sums are exact in any order.
     */
    void count(const std::string &key, double v);

    /** Counters of one round (empty map if none were recorded). */
    std::map<std::string, double> counts(uint32_t round) const;
    std::vector<Span> spans() const;

    /** Chrome trace-event JSON ("X" complete events, microseconds) of
     *  the spans of rounds up to `lastRound`. */
    void writeChromeTrace(std::ostream &os,
                          uint32_t lastRound = UINT32_MAX) const;

  private:
    friend class SpanScope;
    uint32_t open(const char *layer, const char *name, int32_t cell,
                  uint32_t parent, Span *out);
    void close(Span &s);

    std::atomic<uint32_t> nextId_{1};
    std::atomic<uint32_t> round_{0};
    int64_t epochNs_ = 0;
    mutable std::mutex mu_;  ///< guards spans_ and counts_
    std::vector<Span> spans_;
    std::map<uint32_t, std::map<std::string, double>> counts_;
};

/** RAII span; a null tracer makes it a no-op. */
class SpanScope {
  public:
    SpanScope(Tracer *t, const char *layer, const char *name,
              int32_t cell = -1, uint32_t parent = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return span_.id; }

  private:
    Tracer *t_;
    Span span_;
};

/**
 * Self time of every span, index-aligned with `spans`: duration minus
 * the union of its direct children's intervals clipped to it.
 */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

} // namespace figbench

#endif
