/**
 * @file
 * In-memory span recorder for the traced benchmark runs. Spans are
 * recorded around calls into the repository's layers (the program
 * itself is not instrumented), kept in memory, and written at the
 * end as Chrome trace-event JSON plus a per-layer self-time table.
 */

#ifndef AREGION_PERFBENCH_SPANS_HH
#define AREGION_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int parent = -1;        ///< index of the enclosing span, -1 = root
    uint32_t thread = 0;    ///< small per-process thread number
    int64_t request = -1;   ///< request / cell id, -1 = none
};

/** Self time of one span name: duration minus the time its direct
 *  child spans cover. */
struct LayerTime
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
};

/**
 * Thread-safe span store. A disabled recorder records nothing, so
 * the same code path serves the untraced runs.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span on the calling thread; its parent is the span
     *  this thread has open, if any. Returns -1 when disabled. */
    int begin(const char *name, int64_t request = -1);
    void end(int index);

    /** Record a finished root span with explicit times (measured
     *  after the fact, e.g. a request completed on another thread). */
    void add(const char *name, uint64_t start_ns, uint64_t end_ns,
             int64_t request);

    std::map<std::string, LayerTime> layerTimes() const;

    /** Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). */
    bool writeChromeTrace(const std::string &path) const;

    /** Plain-text per-layer self-time table. */
    bool writeSelfTimeTable(const std::string &path) const;

  private:
    bool on;
    mutable std::mutex mu;
    std::vector<Span> spans;    ///< guarded by mu
};

/** RAII span on a recorder (inert when the recorder is disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name,
               int64_t request = -1)
        : recorder(rec), index(rec.begin(name, request))
    {
    }
    ~ScopedSpan() { recorder.end(index); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder;
    int index;
};

} // namespace perfbench

#endif // AREGION_PERFBENCH_SPANS_HH
