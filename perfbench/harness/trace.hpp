// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files, around calls into each module's public functions;
// nothing inside the program is instrumented. Each thread appends to its own
// buffer, so recording takes no lock after a thread's first span. The spans
// are read back once every worker has finished, then written out as Chrome
// trace-event JSON and reduced to a per-layer self-time table.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";  ///< layer-qualified name, e.g. "fare.preprocess"
    int thread = 0;         ///< track: threads numbered in first-span order
    int parent = -1;        ///< index of the enclosing span; -1 at the root
    double start_s = 0.0;   ///< seconds since start_recording()
    double end_s = 0.0;
};

/// Drop every recorded span and start recording (time zero is now). Call
/// only while no span is open on any thread. Recording is off until then.
void start_recording();
/// Stop recording; spans opened after this are not recorded.
void stop_recording();
/// Every span recorded since start_recording(), thread by thread, with parent
/// indices into the returned vector. Call after the recording threads have
/// finished (e.g. after the executor returned).
std::vector<Span> recorded_spans();

/// RAII span on the current thread; nests under the span open around it.
/// Names must be string literals (only the pointer is stored).
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    void* buffer_ = nullptr;
    std::size_t index_ = 0;
};

/// Self time of each span: its duration minus the durations of its direct
/// children (children of one span never overlap: they nest on its thread).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span list.
struct LayerTime {
    std::string name;
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};
/// One row per span name, by descending self time.
std::vector<LayerTime> layer_table(const std::vector<Span>& spans);

/// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one "X"
/// event per span, one named track per thread.
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out);

/// Fixed-width text table of layer_table() rows with each row's share of
/// `wall_s` worker-seconds.
void write_layer_table(const std::vector<LayerTime>& rows, double wall_s,
                       std::ostream& out);

}  // namespace perfbench
