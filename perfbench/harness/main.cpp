// perfbench harness: runs one workload of the plan-level benchmark in this
// process and prints its metrics (see perfbench/README.md).
//
//   perfbench_harness --workload fig5_grid --seed 7 --seconds 30 --trace 0
//                     [--out DIR] [--commit ID] [--record FILE]
//
// --trace 0: run SimSession::run on fresh sessions while another pass fits in
//   --seconds, timing every run_cell from the injected executor, with probe
//   set-ups before and after (setup_s is their median). Prints the
//   end-to-end metrics.
// --trace 1: one untraced pass as reference, then one pass whose executor
//   replaces run_cell with the split, span-recording cell; writes the Chrome
//   trace and the layer self-time table to --out and prints the per-layer
//   metrics. Both passes must produce byte-identical canonical cells.
//
// The last stdout line is the result object; the line before it holds the
// host and build facts. Exits 2 on a usage or environment error, before
// measuring anything.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cell_split.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "net/protocol.hpp"
#include "report.hpp"
#include "sim/cell_cache.hpp"
#include "sim/executor.hpp"
#include "sim/scheduler.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// In-process set-ups measured around the passes, half before and half
/// after; setup_s is the median of these plus one per pass. A set-up takes
/// ~1-2 ms, and on a shared host a core's speed flips between two levels
/// ~1.7x apart every few seconds, so back-to-back probes all land in one
/// state. Spacing them out (busy-waiting, so the core stays hot) samples
/// many states, which keeps the median in the same one from run to run.
constexpr std::size_t kSetupProbes = 40;
constexpr double kProbeSpacingSeconds = 0.05;

struct Options {
    const pb::Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir = ".";
    std::string commit = "unknown";
    std::string record;
};

[[noreturn]] void die(const std::string& message) {
    std::cerr << "perfbench_harness: " << message << '\n';
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options o;
    std::string workload;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) die("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") workload = value;
            else if (arg == "--seed") o.seed = std::stoull(value), have_seed = true;
            else if (arg == "--seconds") o.seconds = std::stod(value), have_seconds = true;
            else if (arg == "--trace") o.trace = std::stoi(value) != 0, have_trace = true;
            else if (arg == "--out") o.out_dir = value;
            else if (arg == "--commit") o.commit = value;
            else if (arg == "--record") o.record = value;
            else die("unknown argument " + arg);
        } catch (const std::logic_error&) {
            die("bad value for " + arg + ": " + value);
        }
    }
    o.workload = pb::find_workload(workload);
    if (o.workload == nullptr) die("unknown --workload '" + workload + "'");
    if (!have_seed || !have_seconds || !have_trace || !(o.seconds > 0.0))
        die("--seed, --seconds (> 0) and --trace are required");
    return o;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

rusage usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

double cpu_seconds() {
    const rusage ru = usage();
    const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------------
// The injected executor.
// ---------------------------------------------------------------------------

/// Thrown by a probe executor when the session dispatches: ends a set-up
/// measurement before any cell runs.
struct DispatchReached {};

struct CellTiming {
    double queue_s = 0.0;  ///< dispatch -> cell start
    double wall_s = 0.0;   ///< the cell function itself
};

/// Runs cells like PoolExecutor (or InlineExecutor at width 1) and times each
/// call of the cell function from outside it. A cell that throws is reported
/// with a NaN accuracy, which the output checks count as failed.
class TimedExecutor final : public fare::CellExecutor {
public:
    using CellFn = std::function<fare::CellResult(const fare::CellSpec&)>;

    /// A null `cell_fn` makes a probe: execute() records the dispatch time
    /// and throws DispatchReached.
    TimedExecutor(std::size_t width, CellFn cell_fn)
        : width_(width), cell_fn_(std::move(cell_fn)) {}

    void execute(const std::vector<const fare::CellSpec*>& jobs,
                 const DoneFn& done) override {
        dispatched_ = Clock::now();
        if (!cell_fn_) throw DispatchReached{};
        timings_.assign(jobs.size(), CellTiming{});
        const auto body = [&](std::size_t j) {
            const Clock::time_point start = Clock::now();
            fare::CellResult result;
            try {
                result = cell_fn_(*jobs[j]);
            } catch (const std::exception& e) {
                result = fare::CellResult{};
                result.spec = *jobs[j];
                result.run.train.test_accuracy = std::nan("");
                std::lock_guard<std::mutex> lock(error_mutex_);
                std::cerr << "cell failed: " << jobs[j]->label() << ": " << e.what() << '\n';
            }
            timings_[j] = {seconds_between(dispatched_, start),
                           seconds_between(start, Clock::now())};
            done(j, std::move(result));
        };
        if (width_ <= 1) {
            for (std::size_t j = 0; j < jobs.size(); ++j) body(j);
        } else {
            fare::parallel_for_each(width_, jobs.size(), body);
        }
    }

    std::size_t width() const override { return width_; }
    Clock::time_point dispatched() const { return dispatched_; }
    const std::vector<CellTiming>& timings() const { return timings_; }

private:
    std::size_t width_;
    CellFn cell_fn_;
    Clock::time_point dispatched_{};
    std::vector<CellTiming> timings_;
    std::mutex error_mutex_;
};

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

struct Pass {
    double setup_s = 0.0;  ///< plan build -> first dispatch
    double wall_s = 0.0;   ///< SimSession::run
    double cpu_s = 0.0;    ///< process user+sys over SimSession::run
    std::vector<CellTiming> timings;  ///< one per executed cell
    fare::ResultSet results;
};

/// Build the plan and a session around a TimedExecutor; with a cell function,
/// run it (the timed region), without one, stop at dispatch.
Pass run_pass(const pb::Workload& workload, std::uint64_t seed,
              const TimedExecutor::CellFn& cell_fn) {
    Pass pass;
    const Clock::time_point t0 = Clock::now();
    const fare::ExperimentPlan plan = workload.build(seed);
    auto executor = std::make_unique<TimedExecutor>(workload.cell_width, cell_fn);
    TimedExecutor& timed = *executor;
    fare::SimSession session(fare::SessionOptions{}, std::move(executor),
                             std::make_unique<fare::MemoryCellCache>());
    const double cpu0 = cpu_seconds();
    const Clock::time_point w0 = Clock::now();
    try {
        pass.results = session.run(plan);
    } catch (const DispatchReached&) {
        pass.setup_s = seconds_between(t0, timed.dispatched());
        return pass;
    }
    pass.wall_s = seconds_between(w0, Clock::now());
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.setup_s = seconds_between(t0, timed.dispatched());
    pass.timings = timed.timings();
    return pass;
}

/// One canonical line per plan cell: the full-fidelity record with every
/// measured time and the cache flag zeroed.
std::vector<std::string> canonical_lines(const fare::ResultSet& results) {
    std::vector<std::string> lines;
    for (fare::CellResult cell : results) {
        cell.wall_seconds = 0.0;
        cell.from_cache = false;
        cell.run.train.preprocess_seconds = 0.0;
        cell.run.train.train_seconds = 0.0;
        lines.push_back(fare::cell_result_to_json(cell));
    }
    return lines;
}

std::string digest(const std::vector<std::string>& lines) {
    std::string all;
    for (const std::string& line : lines) all += line + '\n';
    return hex64(pb::fnv1a(all));
}

/// Number of cells whose canonical line differs between two runs of the
/// same plan (all of them when the plans differ in length).
std::size_t mismatches(const std::vector<std::string>& a, const std::vector<std::string>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t n = 0;
    for (std::size_t i = 0; i < a.size(); ++i) n += a[i] != b[i];
    return n;
}

std::size_t executed_cells(const fare::ResultSet& results) {
    std::size_t n = 0;
    for (const fare::CellResult& cell : results) n += !cell.from_cache;
    return n;
}

/// Coordinates of a cell without its scheme and seeds, so a FARe cell finds
/// the fault-unaware cells it is compared with.
std::string match_key(fare::CellSpec spec) {
    spec.scheme = fare::Scheme::kFaultUnaware;
    spec.seed = 0;
    spec.hardware_seed.reset();
    return spec.key();
}

/// Mean FARe minus mean fault-unaware accuracy (percentage points) over
/// coordinates where both schemes ran; nullopt when none did.
std::optional<double> fare_gain_pp(const fare::ResultSet& results) {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_coords;
    for (const fare::CellResult& cell : results) {
        if (cell.from_cache) continue;
        if (cell.spec.scheme == fare::Scheme::kFARe)
            by_coords[match_key(cell.spec)].first.push_back(cell.accuracy());
        else if (cell.spec.scheme == fare::Scheme::kFaultUnaware)
            by_coords[match_key(cell.spec)].second.push_back(cell.accuracy());
    }
    double fare_sum = 0.0, unaware_sum = 0.0;
    std::size_t fare_n = 0, unaware_n = 0;
    for (const auto& [coords, accs] : by_coords) {
        if (accs.first.empty() || accs.second.empty()) continue;
        for (const double a : accs.first) fare_sum += a, ++fare_n;
        for (const double a : accs.second) unaware_sum += a, ++unaware_n;
    }
    if (fare_n == 0) return std::nullopt;
    return 100.0 * (fare_sum / fare_n - unaware_sum / unaware_n);
}

/// Output checks shared by both modes. Returns the executed cells that fail
/// one; `plan_ok` turns false when a plan-level check fails.
std::size_t check_outputs(const pb::Workload& workload, const fare::ResultSet& results,
                          bool& plan_ok) {
    std::size_t failed = 0;
    for (const fare::CellResult& cell : results) {
        const double acc = cell.accuracy();
        if (!cell.from_cache && !(std::isfinite(acc) && acc >= 0.0 && acc <= 1.0)) {
            std::cerr << "check failed: accuracy " << acc << " for " << cell.spec.label()
                      << '\n';
            ++failed;
        }
    }
    if (workload.name == "fig5_grid") {
        const std::optional<double> gain = fare_gain_pp(results);
        if (!gain || !(*gain > 0.0)) {
            std::cerr << "check failed: mean FARe accuracy is not above mean "
                         "fault-unaware accuracy\n";
            plan_ok = false;
        }
    }
    return failed;
}

std::string host_json(const Options& o) {
    const char* threads = std::getenv("FARE_THREADS");
    std::ostringstream os;
    os << "{\"workload\": \"" << o.workload->name << "\", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
       << fare::json_escape(cpu_model()) << "\", \"simd_active\": \""
       << fare::simd::isa_name(fare::simd::active_isa()) << "\", \"simd_detected\": \""
       << fare::simd::isa_name(fare::simd::detected_isa()) << "\", \"compiler\": \""
       << fare::json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"commit\": \"" << fare::json_escape(o.commit)
       << "\", \"FARE_THREADS\": \"" << (threads ? threads : "") << "\"}";
    return os.str();
}

/// Refuse to measure anything but a Release build under the workload's
/// thread cap.
void check_environment() {
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        die(std::string("refusing to measure a '") + PERFBENCH_BUILD_TYPE +
            "' build: configure with -DCMAKE_BUILD_TYPE=Release");
#ifndef NDEBUG
    die("refusing to measure a build with assertions enabled (NDEBUG unset)");
#endif
    const char* threads = std::getenv("FARE_THREADS");
    const std::string want = std::to_string(pb::kThreadCap);
    if (threads == nullptr || want != threads)
        die("FARE_THREADS must be " + want + " (got '" +
            std::string(threads ? threads : "unset") + "')");
    if (fare::resolve_threads(0) != pb::kThreadCap)
        die("the worker pool does not resolve to " + want + " threads");
}

struct Outcome {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    pb::MetricValues metrics;
    std::string digest;
};

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "") {
    std::cout << "  " << std::left << std::setw(24) << name << std::right
              << std::setw(16) << std::setprecision(6) << value << ' ' << std::left
              << std::setw(10) << unit << note << std::right << '\n';
}

// ---------------------------------------------------------------------------
// --trace 0
// ---------------------------------------------------------------------------

/// `count` probe set-ups, kProbeSpacingSeconds apart.
void probe_setups(const pb::Workload& w, std::uint64_t seed, std::size_t count,
                  std::vector<double>& out) {
    for (std::size_t i = 0; i < count; ++i) {
        const Clock::time_point next =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kProbeSpacingSeconds));
        out.push_back(run_pass(w, seed, nullptr).setup_s);
        while (Clock::now() < next) {
        }
    }
}

Outcome run_untraced(const Options& o) {
    const pb::Workload& w = *o.workload;
    Outcome out;
    std::vector<double> setups;
    probe_setups(w, o.seed, kSetupProbes / 2, setups);

    std::vector<double> cell_walls, pass_cpu;
    double wall_total = 0.0;
    std::size_t executed = 0;
    std::vector<std::string> reference;
    bool plan_ok = true;
    for (;;) {
        const Pass pass = run_pass(w, o.seed, fare::run_cell);
        setups.push_back(pass.setup_s);
        pass_cpu.push_back(pass.cpu_s);
        wall_total += pass.wall_s;
        for (const CellTiming& t : pass.timings) cell_walls.push_back(t.wall_s);
        const std::size_t pass_executed = executed_cells(pass.results);
        executed += pass_executed;
        out.failed += check_outputs(w, pass.results, plan_ok);
        const std::vector<std::string> lines = canonical_lines(pass.results);
        if (reference.empty()) {
            reference = lines;
        } else if (const std::size_t diff = mismatches(reference, lines); diff > 0) {
            std::cerr << "check failed: " << diff << " cells differ between passes\n";
            out.failed += diff;
        }
        std::cout << "pass " << pass_cpu.size() << ": " << pass_executed << " executed / "
                  << pass.results.size() << " listed cells, " << std::setprecision(4)
                  << pass.wall_s << " s wall, " << pass.cpu_s << " CPU-s\n";
        // Stop when another pass of this length would overrun --seconds.
        if (wall_total + pass.wall_s > o.seconds) break;
    }
    probe_setups(w, o.seed, kSetupProbes - kSetupProbes / 2, setups);
    out.digest = digest(reference);
    out.attempted = executed;
    out.correct = plan_ok && out.failed == 0;

    const std::optional<double> p50 = pb::harrell_davis(cell_walls, 0.5);
    const std::optional<double> p90 = pb::harrell_davis(cell_walls, 0.9);
    if (!p50 || !p90)
        throw std::runtime_error("too few cells for a p90 with 10 samples beyond it (" +
                                 std::to_string(cell_walls.size()) + ")");
    const double rss_mib = static_cast<double>(usage().ru_maxrss) / 1024.0;
    out.metrics = {{"cells_per_s", static_cast<double>(executed) / wall_total},
                   {"plan_cpu_s", pb::median(pass_cpu)},
                   {"cell_wall_p50_s", *p50},
                   {"cell_wall_p90_s", *p90},
                   {"setup_s", pb::median(setups)},
                   {"peak_rss_mb", rss_mib}};

    const std::string n = "n=" + std::to_string(cell_walls.size());
    const std::size_t beyond =
        cell_walls.size() - static_cast<std::size_t>(std::ceil(0.9 * cell_walls.size()));
    print_metric("cells_per_s", out.metrics["cells_per_s"], "1/s",
                 std::to_string(executed) + " cells / " + std::to_string(wall_total) + " s");
    print_metric("plan_cpu_s", out.metrics["plan_cpu_s"], "s",
                 "median of " + std::to_string(pass_cpu.size()) + " passes");
    print_metric("cell_wall_p50_s", *p50, "s", n);
    print_metric("cell_wall_p90_s", *p90, "s", n + ", " + std::to_string(beyond) + " beyond");
    print_metric("setup_s", out.metrics["setup_s"], "s",
                 "median of " + std::to_string(setups.size()) + " set-ups");
    print_metric("peak_rss_mb", rss_mib, "MiB");
    print_metric("fail_frac", executed ? static_cast<double>(out.failed) / executed : 0.0, "",
                 std::to_string(out.failed) + "/" + std::to_string(executed) + " cells");
    return out;
}

// ---------------------------------------------------------------------------
// --trace 1
// ---------------------------------------------------------------------------

/// Per-cell counters the traced cells add up.
struct TraceTotals {
    std::mutex mutex;
    pb::SplitCellStats sum;
};

Outcome run_traced(const Options& o) {
    const pb::Workload& w = *o.workload;
    Outcome out;
    bool plan_ok = true;

    const Pass reference = run_pass(w, o.seed, fare::run_cell);
    const std::vector<std::string> reference_lines = canonical_lines(reference.results);
    out.failed += check_outputs(w, reference.results, plan_ok);
    std::cout << "untraced pass: " << executed_cells(reference.results) << " cells, "
              << std::setprecision(4) << reference.wall_s << " s wall, " << reference.cpu_s
              << " CPU-s\n";

    TraceTotals totals;
    const auto traced_cell = [&](const fare::CellSpec& spec) {
        pb::ScopedSpan span("sim.cell");
        pb::SplitCellStats stats;
        fare::CellResult result = pb::run_cell_split(spec, &stats);
        std::lock_guard<std::mutex> lock(totals.mutex);
        totals.sum.hooks += stats.hooks;
        totals.sum.refreshing_hooks += stats.refreshing_hooks;
        totals.sum.blocks_mapped += stats.blocks_mapped;
        totals.sum.host_blocks += stats.host_blocks;
        return result;
    };

    pb::start_recording();
    {
        // SimSession::run schedules internally; this separate call on the
        // same plan is what sim.schedule_s times.
        const fare::ExperimentPlan plan = w.build(o.seed);
        pb::ScopedSpan span("sim.schedule");
        (void)fare::PlanScheduler().schedule(plan);
    }
    const Pass traced = run_pass(w, o.seed, traced_cell);
    // What shipping each executed cell home costs: the cache/shard record
    // and the fleet's result frame, both ways.
    for (const fare::CellResult& cell : traced.results) {
        if (cell.from_cache) continue;
        fare::CellRecord record;
        record.plan = w.name;
        record.key = cell.spec.key();
        record.plan_index = cell.plan_index;
        record.result = cell;
        std::string line, frame;
        {
            pb::ScopedSpan span("sim.record_encode");
            line = fare::cell_record_to_json(record);
        }
        {
            pb::ScopedSpan span("sim.record_decode");
            if (!fare::cell_record_from_json(line).ok()) ++out.failed;
        }
        {
            pb::ScopedSpan span("net.frame_encode");
            frame = fare::net::encode_message(fare::net::make_result(cell.plan_index, cell));
        }
        {
            pb::ScopedSpan span("net.frame_decode");
            if (!fare::net::decode_message(frame).ok()) ++out.failed;
        }
    }
    pb::stop_recording();
    const std::vector<pb::Span> spans = pb::recorded_spans();

    out.failed += check_outputs(w, traced.results, plan_ok);
    const std::vector<std::string> traced_lines = canonical_lines(traced.results);
    if (const std::size_t diff = mismatches(reference_lines, traced_lines); diff > 0) {
        std::cerr << "check failed: " << diff << " traced cells differ from untraced\n";
        out.failed += diff;
    }
    out.digest = digest(traced_lines);
    out.attempted = executed_cells(traced.results);
    out.correct = plan_ok && out.failed == 0;

    // Reduce the spans to per-layer totals.
    const std::vector<pb::LayerTime> table = pb::layer_table(spans);
    const auto row = [&](const char* name) {
        for (const pb::LayerTime& r : table)
            if (r.name == name) return r;
        return pb::LayerTime{name, 0, 0.0, 0.0};
    };
    double busy = 0.0, queue = 0.0;
    for (const CellTiming& t : traced.timings) busy += t.wall_s, queue += t.queue_s;
    const std::size_t cells = traced.timings.size();
    std::size_t memo_hits = 0;
    double bist = 0, wear = 0, rounds = 0, repairs = 0, cost = 0, inter_tile = 0, online = 0;
    for (const fare::CellResult& cell : traced.results) {
        memo_hits += cell.from_cache;
        if (cell.from_cache) continue;
        const fare::SchemeRunResult& r = cell.run;
        bist += r.bist_scans;
        wear += r.wear_faults;
        rounds += r.online.detection_rounds;
        repairs += r.online.repair_writes;
        cost += r.total_mapping_cost;
        inter_tile += r.inter_tile_seconds;
        online += r.online.detect_seconds + r.online.repair_seconds;
    }
    const pb::SplitCellStats& s = totals.sum;
    const std::size_t blocks = s.blocks_mapped + s.host_blocks;
    pb::MetricValues& m = out.metrics;
    m["sim.schedule_s"] = row("sim.schedule").total_s;
    m["sim.memo_hit_frac"] =
        static_cast<double>(memo_hits) / static_cast<double>(traced.results.size());
    m["sim.cell_busy_s"] = busy;
    m["sim.queue_wait_s"] = cells ? queue / static_cast<double>(cells) : 0.0;
    m["sim.pool_idle_frac"] =
        1.0 - busy / (static_cast<double>(w.cell_width) * traced.wall_s);
    m["sim.record_encode_s"] = row("sim.record_encode").total_s;
    m["sim.record_decode_s"] = row("sim.record_decode").total_s;
    m["net.frame_encode_s"] = row("net.frame_encode").total_s;
    m["net.frame_decode_s"] = row("net.frame_decode").total_s;
    m["graph.dataset_s"] = row("graph.dataset").total_s;
    m["graph.dataset_calls"] = static_cast<double>(row("graph.dataset").calls);
    m["models.init_s"] = row("models.init").total_s;
    m["models.train_self_s"] = row("models.run").self_s;
    m["models.steps"] = static_cast<double>(row("reram.step_hook").calls);
    m["reram.inject_s"] = row("reram.inject").total_s;
    m["reram.bind_s"] = row("reram.bind").total_s;
    m["reram.weights_s"] = row("reram.weights").total_s;
    m["reram.weights_calls"] = static_cast<double>(row("reram.weights").calls);
    m["reram.step_hook_s"] = row("reram.step_hook").total_s;
    m["reram.step_hook_calls"] = static_cast<double>(row("reram.step_hook").calls);
    m["reram.epoch_hook_s"] = row("reram.epoch_hook").total_s;
    m["reram.refresh_frac"] =
        s.hooks ? static_cast<double>(s.refreshing_hooks) / static_cast<double>(s.hooks) : 0.0;
    m["reram.bist_scans"] = bist;
    m["reram.wear_faults"] = wear;
    m["reram.detect_rounds"] = rounds;
    m["reram.repair_writes"] = repairs;
    m["fare.preprocess_s"] = row("fare.preprocess").total_s;
    m["fare.blocks_mapped"] = static_cast<double>(s.blocks_mapped);
    m["fare.host_block_frac"] =
        blocks ? static_cast<double>(s.host_blocks) / static_cast<double>(blocks) : 0.0;
    m["fare.adjacency_s"] = row("fare.adjacency").total_s;
    m["fare.adjacency_calls"] = static_cast<double>(row("fare.adjacency").calls);
    m["fare.mapping_cost"] = cost;
    m["model.fare_gain_pp"] = fare_gain_pp(traced.results).value_or(0.0);
    m["trace.overhead_frac"] = traced.cpu_s / reference.cpu_s - 1.0;

    // The trace and the self-time table.
    const std::string stem = o.out_dir + "/" + w.name + "-seed" + std::to_string(o.seed);
    {
        std::ofstream trace_out(stem + ".trace.json");
        pb::write_chrome_trace(spans, trace_out);
        std::ofstream table_out(stem + ".layers.txt");
        pb::write_layer_table(table, static_cast<double>(w.cell_width) * traced.wall_s,
                              table_out);
        if (!trace_out || !table_out)
            throw std::runtime_error("cannot write " + stem + ".{trace.json,layers.txt}");
    }
    std::cout << "traced pass: " << cells << " cells, " << std::setprecision(4)
              << traced.wall_s << " s wall, " << traced.cpu_s << " CPU-s, "
              << spans.size() << " spans -> " << stem << ".trace.json\n";
    pb::write_layer_table(table, static_cast<double>(w.cell_width) * traced.wall_s,
                          std::cout);
    for (const pb::MetricDef& def : pb::per_layer_metrics())
        print_metric(def.name, m[def.name], def.unit);
    // Modelled chip seconds: deterministic per seed and zero on most
    // workloads, so they are printed here but kept out of the result line,
    // whose seconds are host time.
    print_metric("model.inter_tile_s", inter_tile, "modelled_s", " (not in the result line)");
    print_metric("model.online_s", online, "modelled_s", " (not in the result line)");
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse_args(argc, argv);
    check_environment();

    std::cout << "perfbench " << options.workload->name << " seed=" << options.seed
              << " trace=" << options.trace << " seconds=" << options.seconds << '\n';
    Outcome out;
    try {
        out = options.trace ? run_traced(options) : run_untraced(options);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_harness: " << e.what() << '\n';
        return 1;
    }
    std::cout << "digest: " << out.digest << "  correct: " << (out.correct ? "yes" : "NO")
              << '\n';
    const std::string host = host_json(options);
    const std::string result =
        pb::result_json(out.correct, out.attempted, out.failed,
                        options.trace ? pb::per_layer_metrics() : pb::end_to_end_metrics(),
                        out.metrics);
    if (!options.record.empty()) {
        std::ofstream record(options.record, std::ios::app);
        record << "{\"host\": " << host << ", \"digest\": \"" << out.digest
               << "\", \"result\": " << result << "}\n";
        if (!record) {
            std::cerr << "perfbench_harness: cannot append to " << options.record << '\n';
            return 1;
        }
    }
    std::cout << host << '\n' << result << std::endl;
    return 0;
}
