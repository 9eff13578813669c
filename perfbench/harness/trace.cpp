#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct ThreadBuffer {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices of the spans still open
};

struct LogState {
    std::mutex mutex;  // guards buffers and epoch
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    Clock::time_point epoch = Clock::now();
    std::atomic<bool> enabled{false};
    /// Bumped by start_recording(): a thread whose cached buffer is from an
    /// older generation registers a fresh one.
    std::atomic<std::uint64_t> generation{0};
};

LogState& state() {
    static LogState s;
    return s;
}

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local std::uint64_t tls_generation = ~std::uint64_t{0};

ThreadBuffer* current_buffer() {
    LogState& s = state();
    const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
    if (tls_buffer == nullptr || tls_generation != gen) {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto buffer = std::make_unique<ThreadBuffer>();
        buffer->thread = static_cast<int>(s.buffers.size());
        tls_buffer = buffer.get();
        tls_generation = gen;
        s.buffers.push_back(std::move(buffer));
    }
    return tls_buffer;
}

double seconds_since_epoch() {
    // The epoch is written only by start_recording(), before any span.
    return std::chrono::duration<double>(Clock::now() - state().epoch).count();
}

}  // namespace

void start_recording() {
    LogState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.buffers.clear();
    s.epoch = Clock::now();
    s.generation.fetch_add(1, std::memory_order_acq_rel);
    s.enabled.store(true, std::memory_order_release);
}

void stop_recording() { state().enabled.store(false, std::memory_order_release); }

std::vector<Span> recorded_spans() {
    LogState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<Span> out;
    for (const auto& buffer : s.buffers) {
        const int offset = static_cast<int>(out.size());
        for (Span span : buffer->spans) {
            if (span.parent >= 0) span.parent += offset;
            out.push_back(span);
        }
    }
    return out;
}

ScopedSpan::ScopedSpan(const char* name) {
    if (!state().enabled.load(std::memory_order_acquire)) return;
    ThreadBuffer* buffer = current_buffer();
    Span span;
    span.name = name;
    span.thread = buffer->thread;
    span.parent = buffer->open.empty() ? -1 : static_cast<int>(buffer->open.back());
    span.start_s = seconds_since_epoch();
    index_ = buffer->spans.size();
    buffer->spans.push_back(span);
    buffer->open.push_back(index_);
    buffer_ = buffer;
}

ScopedSpan::~ScopedSpan() {
    if (buffer_ == nullptr) return;
    auto* buffer = static_cast<ThreadBuffer*>(buffer_);
    buffer->spans[index_].end_s = seconds_since_epoch();
    buffer->open.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_s - spans[i].start_s;
    for (const Span& span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    return self;
}

std::vector<LayerTime> layer_table(const std::vector<Span>& spans) {
    const std::vector<double> self = self_times(spans);
    std::map<std::string, LayerTime> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime& row = by_name[spans[i].name];
        row.name = spans[i].name;
        ++row.calls;
        row.total_s += spans[i].end_s - spans[i].start_s;
        row.self_s += self[i];
    }
    std::vector<LayerTime> rows;
    for (auto& [name, row] : by_name) rows.push_back(row);
    std::stable_sort(rows.begin(), rows.end(), [](const LayerTime& a, const LayerTime& b) {
        return a.self_s > b.self_s;
    });
    return rows;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out) {
    int threads = 0;
    for (const Span& span : spans) threads = std::max(threads, span.thread + 1);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    const char* sep = "";
    for (int t = 0; t < threads; ++t) {
        out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
            << ",\"args\":{\"name\":\"thread " << t << "\"}}";
        sep = ",\n";
    }
    out << std::fixed << std::setprecision(3);
    for (const Span& span : spans) {
        const std::string name = span.name;
        const std::string layer = name.substr(0, name.find('.'));
        out << sep << "{\"name\":\"" << name << "\",\"cat\":\"" << layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
            << ",\"ts\":" << span.start_s * 1e6
            << ",\"dur\":" << (span.end_s - span.start_s) * 1e6 << '}';
        sep = ",\n";
    }
    out << "\n]}\n";
}

void write_layer_table(const std::vector<LayerTime>& rows, double wall_s,
                       std::ostream& out) {
    out << std::left << std::setw(24) << "span" << std::right << std::setw(10)
        << "calls" << std::setw(14) << "total_s" << std::setw(14) << "self_s"
        << std::setw(10) << "share" << '\n';
    out << std::fixed;
    for (const LayerTime& row : rows) {
        out << std::left << std::setw(24) << row.name << std::right << std::setw(10)
            << row.calls << std::setw(14) << std::setprecision(6) << row.total_s
            << std::setw(14) << row.self_s << std::setw(9) << std::setprecision(1)
            << (wall_s > 0.0 ? 100.0 * row.self_s / wall_s : 0.0) << "%\n";
    }
}

}  // namespace perfbench
