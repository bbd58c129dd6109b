/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * A span is one call into a simulator layer made from the benchmark's
 * own code: its name is "<layer>.<operation>", it records the span
 * that was open when it started (its parent) and the sweep cell it
 * belongs to. Spans stay in memory and are written out when the run
 * ends. The benchmark is single-threaded and spans open and close in
 * stack order, so the children of a span never overlap one another.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. Times are nanoseconds since the tracer began. */
struct Span
{
    /** A string literal, "<layer>.<operation>". */
    const char *name = "";
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    /** Sweep-cell index the span belongs to, or -1 for none. */
    int cell = -1;
    double startNs = 0;
    double durationNs = 0;
};

/** Time attributed to one span name, summed over its spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    /** Span time minus the time of direct child spans. */
    double selfNs = 0;
};

/**
 * Self time of every span name in @p spans: each span's duration
 * minus the durations of its direct children, summed per name.
 */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans);

/**
 * Self time per layer (ns), summed over every span of the layer; the
 * layer of "core.run" is "core".
 */
std::map<std::string, double>
layerSelfNs(const std::map<std::string, SpanTotals> &totals);

/** Records nested spans on the calling thread. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer() : origin(Clock::now()) {}

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, int id) : tracer(tracer), id(id) {}
        ~Scope() { tracer.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int id;
    };

    /**
     * Open a span as a child of the innermost open span. @p cell
     * defaults to the enclosing span's cell.
     */
    [[nodiscard]] Scope open(const char *name, int cell = -1);

    /**
     * Record time spent in many short calls as one child of the
     * innermost open span, without a span per call.
     */
    void addAggregate(const char *name, double durationNs);

    const std::vector<Span> &spans() const { return recorded; }

  private:
    void close(int id);

    /** Nanoseconds since the tracer began. */
    double
    nowNs() const
    {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<Span> recorded;
    std::vector<int> stack;
};

/** Accumulates the time of calls too frequent to record one by one. */
class CallTimer
{
  public:
    void
    begin()
    {
        started = Tracer::Clock::now();
    }

    void
    end()
    {
        totalNs += std::chrono::duration<double, std::nano>(
                       Tracer::Clock::now() - started)
                       .count();
    }

    double totalNs = 0;

  private:
    Tracer::Clock::time_point started{};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
