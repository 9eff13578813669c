// fare-run: process-level driver for sharded / resumable plan execution.
//
// One process runs one shard of a built-in plan (the whole plan by default)
// through a SimSession and can persist full-fidelity cell records; a second
// invocation merges N shard record files back into one plan-ordered display
// JSON identical to a single-process run — the multi-process counterpart of
// merge_shards(). scripts/shard_run.sh wires the two together and the CI
// shard-smoke job diffs merged-vs-single output.
//
//   fare-run --plan smoke --shard 0/2 --out shard0.jsonl [--cache-dir DIR]
//   fare-run --merge merged.json shard0.jsonl shard1.jsonl
//
// It is also the fabric coordinator (docs/distributed.md): --listen runs a
// plan on connected fare-worker processes instead of local threads, --serve
// turns the process into a long-running daemon accepting plan submissions
// over the wire, and --submit is the matching client:
//
//   fare-run --plan smoke --listen 127.0.0.1:7500 --min-workers 3 ...
//   fare-run --serve 127.0.0.1:7500 --cache-dir cache/
//   fare-run --submit smoke@127.0.0.1:7500 --json out.json --canonical
//
// Exit codes: 0 success, 1 execution/merge failure, 2 usage error.
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "graph/partitioner.hpp"
#include "net/protocol.hpp"
#include "nn/model_family.hpp"
#include "sim/builtin_plans.hpp"
#include "sim/cell_cache.hpp"
#include "sim/remote_executor.hpp"
#include "sim/result_sink.hpp"
#include "sim/scheduler.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

int usage(std::ostream& os, int code) {
    os << "fare-run — sharded / resumable / distributed experiment-plan "
          "driver\n\n"
          "Run one shard of a built-in plan:\n"
          "  fare-run --plan NAME [options]\n"
          "    --shard I/N      run slice I of N (default 0/1 = whole plan)\n"
          "    --threads N      worker threads (0 = auto / FARE_THREADS)\n"
          "    --cache-dir DIR  persistent cell cache: resume interrupted\n"
          "                     sweeps, reuse unchanged cells across runs;\n"
          "                     safe to share between concurrent shard\n"
          "                     processes (per-process segments + dir lock)\n"
          "    --cache-max-bytes N[K|M|G]\n"
          "                     evict least-recently-used cache entries at\n"
          "                     compaction until the cache fits N bytes\n"
          "    --epochs E       override every cell's epoch budget\n"
          "    --out PATH       write full-fidelity cell records (JSONL),\n"
          "                     mergeable with --merge\n"
          "    --json PATH      write display JSON lines (BENCH_* format)\n"
          "    --canonical      zero measured timings / from_cache in --json\n"
          "                     output so runs diff bit-identically\n"
          "    --stats          print seed-replicate mean/sigma table, the\n"
          "                     workload artefacts (GNN batch sets) this\n"
          "                     process built and reused and, with\n"
          "                     --cache-dir, cache lifecycle counters\n"
          "                     (live/dead/superseded/corrupt/evicted)\n"
          "    --stream         print the console table cells as they finish\n"
          "    --quiet          no console table\n"
          "    --progress       print one dot per executed cell\n"
          "  The SIMD kernel table follows the FARE_SIMD environment variable\n"
          "  (auto|scalar|avx2|neon; default auto = best detected ISA);\n"
          "  results are bit-identical for every setting.\n\n"
          "Run a plan on a fleet of fare-worker processes (the cell cache\n"
          "and all output options behave exactly as in a local run):\n"
          "  fare-run --plan NAME --listen HOST:PORT [options]\n"
          "    --min-workers N  wait for N connected workers before dealing\n"
          "    --port-file P    write the bound port to P (use HOST:0 for\n"
          "                     an ephemeral port)\n"
          "    --heartbeat-timeout-ms N\n"
          "                     a worker silent this long is dead; its\n"
          "                     in-flight cell is re-dealt (default 10000)\n"
          "    --cell-deadline-ms N\n"
          "                     a cell in flight longer than this is dealt\n"
          "                     again to a second worker, first result wins\n"
          "                     (default 0 = off)\n"
          "    --max-attempts N re-deal budget per cell before the plan\n"
          "                     fails (default 4)\n"
          "    --retry-backoff-ms N\n"
          "                     base re-deal delay, doubling per attempt\n"
          "                     (default 200)\n"
          "    --secret S       shared fabric secret (defaults to the\n"
          "                     FARE_FABRIC_SECRET environment variable);\n"
          "                     peers without the matching secret are\n"
          "                     dropped at handshake\n\n"
          "Run as a long-lived daemon accepting workers and plan\n"
          "submissions over the wire:\n"
          "  fare-run --serve HOST:PORT [--cache-dir DIR] [fleet options]\n\n"
          "Submit a plan to a daemon and stream its results back:\n"
          "  fare-run --submit NAME@HOST:PORT [--secret S] [--epochs E]\n"
          "           [--out PATH] [--json PATH] [--canonical]\n\n"
          "Merge shard record files into plan-ordered display JSON:\n"
          "  fare-run --merge OUT IN1 IN2 ... [--canonical]\n\n"
          "Compact a cell cache in place (drop dead lines, fold segments,\n"
          "apply --cache-max-bytes eviction; fails if the dir is in use):\n"
          "  fare-run --cache-compact --cache-dir DIR [--cache-max-bytes N]\n\n"
          "  fare-run --list         list every registry: model families,\n"
          "                          workloads, schemes, partitioners, plans\n";
    return code;
}

/// --list: one stop for every registry-named identifier a plan or CLI flag
/// can reference. The output is the source of truth for "what can I type
/// here" — each section mirrors the error message of the matching lookup.
int list_registries(std::ostream& os) {
    os << "model families:\n";
    for (const ModelFamily* family : registered_model_families())
        os << "  " << family->name << '\n';
    os << "\nworkloads (--plan cells reference these):\n"
       << workload_usage();
    os << "\nschemes:\n";
    for (const Scheme scheme : all_schemes())
        os << "  " << scheme_name(scheme) << '\n';
    os << "\npartitioners:\n";
    for (const Partitioner& partitioner : registered_partitioners())
        os << "  " << partitioner.name << '\n';
    os << "\nbuilt-in plans:\n";
    for (const NamedPlan& plan : builtin_plans())
        os << "  " << plan.name << " — " << plan.description << '\n';
    return 0;
}

/// --stream: one display-JSON line per cell, printed the moment the plan
/// prefix up to it completes (ordered-prefix streaming delivery).
class StreamingLineSink final : public ResultSink {
public:
    explicit StreamingLineSink(std::ostream& os) : os_(os) {}
    void begin(const ExperimentPlan& plan) override { plan_ = plan.name; }
    void cell(const CellResult& r) override {
        os_ << cell_to_json(plan_, r.plan_index, r) << '\n' << std::flush;
    }

private:
    std::ostream& os_;
    std::string plan_;
};

/// Writes a plan's cells, in plan order, as full-fidelity records (--out)
/// and as display lines (--json, --merge); an empty path writes nothing.
void write_outputs(const std::string& plan_name, const ResultSet& cells,
                   const std::string& records_path, const std::string& display_path,
                   bool canonical) {
    const auto open = [](const std::string& path) {
        std::ofstream out(path, std::ios::trunc);
        FARE_CHECK(out.good(), "cannot open output file: " + path);
        return out;
    };
    if (!records_path.empty()) {
        std::ofstream out = open(records_path);
        for (const CellResult& cell : cells) {
            CellRecord record;
            record.plan = plan_name;
            record.key = cell.spec.key();
            record.plan_index = cell.plan_index;
            record.result = cell;
            out << cell_record_to_json(record) << '\n';
        }
    }
    if (!display_path.empty()) {
        std::ofstream out = open(display_path);
        for (const CellResult& cell : cells)
            out << cell_to_json(plan_name, cell.plan_index,
                                canonical ? canonicalized(cell) : cell)
                << '\n';
    }
}

/// --cache-max-bytes: a byte count with an optional K/M/G suffix.
std::uint64_t parse_bytes(const std::string& s) {
    std::size_t suffix = 0;
    std::uint64_t scale = 1;
    if (!s.empty()) {
        switch (s.back()) {
            case 'K': case 'k': scale = 1ull << 10; suffix = 1; break;
            case 'M': case 'm': scale = 1ull << 20; suffix = 1; break;
            case 'G': case 'g': scale = 1ull << 30; suffix = 1; break;
            default: break;
        }
    }
    const std::string digits = s.substr(0, s.size() - suffix);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        throw InvalidArgument("bad byte count: '" + s + "'");
    std::uint64_t value = 0;
    try {
        value = std::stoull(digits);
    } catch (const std::out_of_range&) {
        throw InvalidArgument("byte count out of range: '" + s + "'");
    }
    if (scale != 1 && value > UINT64_MAX / scale)
        throw InvalidArgument("byte count out of range: '" + s + "'");
    return value * scale;
}

void print_cache_stats(const DiskCacheStats& s, std::ostream& os) {
    os << "cache: " << s.live_entries << " live entries (" << s.live_bytes
       << " bytes), " << s.dead_bytes << " dead bytes, "
       << s.superseded_lines << " superseded line(s), " << s.corrupt_lines
       << " corrupt line(s) skipped, " << s.evicted_entries
       << " evicted, " << s.segments_merged << " segment(s) merged, "
       << s.compactions << " compaction(s)\n";
}

/// --cache-compact: open the cache, force one compaction, report, exit.
int compact_cache(const std::string& cache_dir, std::uint64_t max_bytes) {
    if (cache_dir.empty()) {
        std::cerr << "fare-run: --cache-compact needs --cache-dir\n\n";
        return usage(std::cerr, 2);
    }
    DiskCacheConfig config;
    config.dir = cache_dir;
    config.max_bytes = max_bytes;
    config.compact_on_close = false;  // explicit verb, explicit compaction
    DiskCellCache cache(config);
    if (!cache.compact()) {
        std::cerr << "fare-run: cache " << cache_dir
                  << " is in use by another process; not compacted\n";
        return 1;
    }
    print_cache_stats(cache.stats(), std::cout);
    return 0;
}

int merge(const std::string& out_path, const std::vector<std::string>& inputs,
          bool canonical) {
    std::vector<ResultSet> shards;
    std::string plan_name;
    for (const std::string& input : inputs) {
        std::ifstream in(input);
        if (!in.good()) {
            std::cerr << "fare-run: cannot open " << input << '\n';
            return 1;
        }
        ResultSet& shard = shards.emplace_back();
        std::string line;
        std::size_t line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty()) continue;
            const Expected<CellRecord> record = cell_record_from_json(line);
            if (!record) {
                std::cerr << "fare-run: " << input << ':' << line_no << ": "
                          << record.error() << '\n';
                return 1;
            }
            const CellRecord& rec = record.value();
            if (plan_name.empty()) plan_name = rec.plan;
            if (rec.plan != plan_name) {
                std::cerr << "fare-run: " << input << " is from plan '"
                          << rec.plan << "', expected '" << plan_name << "'\n";
                return 1;
            }
            CellResult& cell = shard.cells.emplace_back(rec.result);
            cell.plan_index = rec.plan_index;
        }
    }
    if (plan_name.empty()) {
        std::cerr << "fare-run: no records to merge\n";
        return 1;
    }
    // Shards must jointly cover the plan exactly once. Only builtin plans
    // write --out records, so the registry knows the plan's cell count.
    ResultSet merged;
    try {
        merged = merge_shards(find_builtin_plan(plan_name), shards);
    } catch (const std::exception& e) {
        std::cerr << "fare-run: " << e.what() << '\n';
        return 1;
    }
    write_outputs(plan_name, merged, "", out_path, canonical);
    std::cout << "merged " << merged.size() << " cells from " << inputs.size()
              << " shard file(s) into " << out_path << '\n';
    return 0;
}

int parse_ms(const std::string& arg, const std::string& s) {
    return parse_flag(arg, s, 0, 1'000'000'000);
}

/// --port-file: how scripts rendezvous with an ephemeral --listen/--serve
/// port. Written atomically (tmp + rename) so a watcher never reads half a
/// line.
void write_port_file(const std::string& path, std::uint16_t port) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        FARE_CHECK(out.good(), "cannot open --port-file path: " + path);
        out << port << '\n';
    }
    FARE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot write --port-file: " + path);
}

/// Serve side of one submission: streams every finished cell to the
/// submitter as a `cell` frame. Send failures flip a latch and stop further
/// sends — a submitter killed mid-stream costs nothing but its own output;
/// the plan still completes (and lands in the daemon's cache).
class WireStreamSink final : public ResultSink {
public:
    WireStreamSink(net::Socket& socket, std::string plan)
        : socket_(socket), plan_(std::move(plan)) {}
    void cell(const CellResult& r) override {
        if (!submitter_alive_) return;
        const Expected<bool> sent = net::send_message(
            socket_, net::make_cell(plan_, r.plan_index, r));
        if (!sent.ok()) submitter_alive_ = false;
        ++streamed_;
    }
    std::size_t streamed() const { return streamed_; }
    bool submitter_alive() const { return submitter_alive_; }

private:
    net::Socket& socket_;
    std::string plan_;
    std::size_t streamed_ = 0;
    bool submitter_alive_ = true;
};

/// One daemon submission, start to finish. Every failure path answers with
/// a `done` frame carrying the error (best-effort) and returns — nothing a
/// submitter does can take the daemon down.
void handle_submission(net::Socket socket, WorkerPool& pool,
                       const SessionOptions& session_options) {
    const auto refuse = [&](const std::string& error) {
        net::send_message(socket, net::make_done(0, error));
        std::cerr << "fare-serve: refused submission from "
                  << socket.peer_label() << ": " << error << '\n';
    };
    const Expected<std::optional<net::WireMessage>> request =
        net::recv_message(socket, 10000);
    if (!request.ok() || !request.value().has_value()) {
        std::cerr << "fare-serve: submitter " << socket.peer_label()
                  << " vanished before submitting\n";
        return;
    }
    const net::WireMessage& submit = *request.value();
    if (submit.type != net::WireMessage::Type::kSubmit)
        return refuse(std::string("expected submit, got ") +
                      net::wire_type_name(submit.type));

    ExperimentPlan plan;
    try {
        plan = find_builtin_plan(submit.plan);
    } catch (const std::exception& e) {
        return refuse(e.what());
    }
    if (submit.epochs)
        for (CellSpec& cell : plan.cells)
            cell.epochs = static_cast<std::size_t>(*submit.epochs);

    std::cerr << "fare-serve: running plan '" << plan.name << "' ("
              << plan.cells.size() << " cells) for " << socket.peer_label()
              << '\n';
    try {
        SimSession session(session_options,
                           std::make_unique<RemoteExecutor>(pool), nullptr);
        auto& sink = static_cast<WireStreamSink&>(session.add_sink(
            std::make_unique<WireStreamSink>(socket, plan.name)));
        session.run(plan);
        net::send_message(socket, net::make_done(sink.streamed(), ""));
        std::cerr << "fare-serve: plan '" << plan.name << "' done, "
                  << sink.streamed() << " cells streamed"
                  << (sink.submitter_alive() ? "" : " (submitter lost)")
                  << '\n';
    } catch (const std::exception& e) {
        refuse(e.what());
    }
}

/// --serve: the daemon loop. One WorkerPool outlives every submission, so
/// workers stay connected between plans and the disk cache keeps warming.
/// Submissions are handed off from the accept thread through a queue and
/// processed sequentially here.
int serve(const net::Endpoint& endpoint, const SessionOptions& session_options,
          const FabricConfig& fabric, const std::string& port_file) {
    Expected<std::unique_ptr<WorkerPool>> pool =
        WorkerPool::listen(endpoint.host, endpoint.port, fabric);
    if (!pool.ok()) {
        std::cerr << "fare-serve: " << pool.error() << '\n';
        return 1;
    }
    WorkerPool& workers = *pool.value();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<net::Socket> submissions;
    workers.set_submitter_handler([&](net::Socket socket) {
        std::lock_guard<std::mutex> lk(mu);
        submissions.push_back(std::move(socket));
        cv.notify_all();
    });

    if (!port_file.empty()) write_port_file(port_file, workers.port());
    std::cerr << "fare-serve: listening on " << endpoint.host << ':'
              << workers.port() << " (workers + submissions)\n";
    while (true) {
        net::Socket socket;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return !submissions.empty(); });
            socket = std::move(submissions.front());
            submissions.pop_front();
        }
        handle_submission(std::move(socket), workers, session_options);
    }
}

/// --submit NAME@HOST:PORT: the daemon's client. Collects the streamed
/// cells and writes the same outputs a local run would.
int submit(const std::string& spec, const std::string& secret,
           std::optional<std::size_t> epochs, const std::string& out_path,
           const std::string& json_path, bool canonical) {
    const std::size_t at = spec.find('@');
    if (at == std::string::npos || at == 0) {
        std::cerr << "fare-run: --submit wants NAME@HOST:PORT, got '" << spec
                  << "'\n";
        return 2;
    }
    const std::string plan_name = spec.substr(0, at);
    const Expected<net::Endpoint> endpoint =
        net::parse_endpoint(spec.substr(at + 1));
    if (!endpoint.ok() || endpoint.value().port == 0) {
        std::cerr << "fare-run: " << (endpoint.ok() ? "port 0 in --submit"
                                                    : endpoint.error())
                  << '\n';
        return 2;
    }

    Expected<net::Socket> connected =
        net::tcp_connect(endpoint.value().host, endpoint.value().port);
    if (!connected.ok()) {
        std::cerr << "fare-run: " << connected.error() << '\n';
        return 1;
    }
    net::Socket socket = std::move(connected).value();
    const Expected<bool> shaken =
        net::client_handshake(socket, net::kRoleSubmitter, secret, 10000);
    if (!shaken.ok()) {
        std::cerr << "fare-run: " << shaken.error() << '\n';
        return 1;
    }
    std::optional<std::uint64_t> wire_epochs;
    if (epochs) wire_epochs = static_cast<std::uint64_t>(*epochs);
    if (!net::send_message(socket, net::make_submit(plan_name, wire_epochs))
             .ok()) {
        std::cerr << "fare-run: submit send failed\n";
        return 1;
    }

    std::map<std::size_t, CellResult> by_index;
    while (true) {
        // No stall timeout: a big cell can legitimately take minutes; a dead
        // daemon surfaces as EOF the moment the kernel notices.
        Expected<std::optional<net::WireMessage>> msg =
            net::recv_message(socket, -1);
        if (!msg.ok()) {
            std::cerr << "fare-run: " << msg.error() << '\n';
            return 1;
        }
        if (!msg.value().has_value()) {
            std::cerr << "fare-run: daemon hung up mid-stream\n";
            return 1;
        }
        net::WireMessage m = *std::move(msg).value();
        if (m.type == net::WireMessage::Type::kCell) {
            m.result.plan_index = static_cast<std::size_t>(m.index);
            by_index[m.result.plan_index] = std::move(m.result);
        } else if (m.type == net::WireMessage::Type::kDone) {
            if (!m.error.empty()) {
                std::cerr << "fare-run: submission failed: " << m.error << '\n';
                return 1;
            }
            break;
        } else {
            std::cerr << "fare-run: unexpected " << net::wire_type_name(m.type)
                      << " from daemon\n";
            return 1;
        }
    }

    ResultSet results;
    for (auto& [index, cell] : by_index) results.cells.push_back(std::move(cell));
    write_outputs(plan_name, results, out_path, json_path, canonical);
    std::cerr << "fare-run: plan '" << plan_name << "' via "
              << spec.substr(at + 1) << ": " << by_index.size()
              << " cells streamed back\n";
    return 0;
}

int run(int argc, char** argv) {
    std::string plan_name, out_path, json_path, merge_out, cache_dir;
    std::vector<std::string> merge_inputs;
    std::string listen_spec, serve_spec, submit_spec, port_file;
    SessionOptions options;
    FabricConfig fabric;
    std::size_t min_workers = 1;
    std::optional<std::size_t> epochs;
    bool canonical = false, stats = false, stream = false, quiet = false;
    bool merging = false, cache_compact = false;
    std::uint64_t cache_max_bytes = 0;
    if (const char* env_secret = std::getenv("FARE_FABRIC_SECRET"))
        fabric.secret = env_secret;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw InvalidArgument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--list") return list_registries(std::cout);
        if (arg == "--plan") plan_name = value();
        else if (arg == "--shard") {
            Expected<ShardSpec> shard = parse_shard(value());
            if (!shard) throw InvalidArgument(shard.error());
            options.shard = shard.value();
        } else if (arg == "--threads")
            options.threads = parse_flag<std::size_t>(arg, value(), 0);
        else if (arg == "--cache-dir") cache_dir = value();
        else if (arg == "--cache-max-bytes") cache_max_bytes = parse_bytes(value());
        else if (arg == "--cache-compact") cache_compact = true;
        else if (arg == "--epochs") epochs = parse_flag<std::size_t>(arg, value(), 1);
        else if (arg == "--out") out_path = value();
        else if (arg == "--json") json_path = value();
        else if (arg == "--canonical") canonical = true;
        else if (arg == "--stats") stats = true;
        else if (arg == "--stream") stream = true;
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--progress") options.progress = &std::cerr;
        else if (arg == "--listen") listen_spec = value();
        else if (arg == "--serve") serve_spec = value();
        else if (arg == "--submit") submit_spec = value();
        else if (arg == "--port-file") port_file = value();
        else if (arg == "--min-workers")
            min_workers = parse_flag<std::size_t>(arg, value(), 1);
        else if (arg == "--heartbeat-timeout-ms")
            fabric.heartbeat_timeout_ms = parse_ms(arg, value());
        else if (arg == "--cell-deadline-ms")
            fabric.cell_deadline_ms = parse_ms(arg, value());
        else if (arg == "--max-attempts")
            fabric.max_attempts = parse_flag(arg, value(), 1);
        else if (arg == "--retry-backoff-ms")
            fabric.retry_backoff_ms = parse_ms(arg, value());
        else if (arg == "--secret") fabric.secret = value();
        else if (arg == "--merge") {
            merging = true;
            merge_out = value();
        } else if (merging && arg.rfind("--", 0) != 0) {
            merge_inputs.push_back(arg);
        } else {
            std::cerr << "fare-run: unknown argument " << arg << "\n\n";
            return usage(std::cerr, 2);
        }
    }

    if (merging) {
        if (merge_inputs.empty()) {
            std::cerr << "fare-run: --merge needs input files\n\n";
            return usage(std::cerr, 2);
        }
        return merge(merge_out, merge_inputs, canonical);
    }
    if (cache_compact) return compact_cache(cache_dir, cache_max_bytes);
    fabric.log = &std::cerr;
    options.cache_dir = cache_dir;
    options.cache_max_bytes = cache_max_bytes;
    if (!submit_spec.empty())
        return submit(submit_spec, fabric.secret, epochs, out_path, json_path,
                      canonical);
    if (!serve_spec.empty()) {
        const Expected<net::Endpoint> endpoint = net::parse_endpoint(serve_spec);
        if (!endpoint.ok()) {
            std::cerr << "fare-run: " << endpoint.error() << "\n\n";
            return usage(std::cerr, 2);
        }
        return serve(endpoint.value(), options, fabric, port_file);
    }
    if (plan_name.empty()) return usage(std::cerr, 2);

    ExperimentPlan plan = find_builtin_plan(plan_name);
    if (epochs)
        for (CellSpec& cell : plan.cells) cell.epochs = epochs;

    // --listen: same session semantics, but cells execute on the connected
    // fare-worker fleet instead of local threads.
    std::unique_ptr<WorkerPool> pool;
    std::unique_ptr<CellExecutor> executor;
    if (!listen_spec.empty()) {
        const Expected<net::Endpoint> endpoint =
            net::parse_endpoint(listen_spec);
        if (!endpoint.ok()) {
            std::cerr << "fare-run: " << endpoint.error() << "\n\n";
            return usage(std::cerr, 2);
        }
        Expected<std::unique_ptr<WorkerPool>> listening = WorkerPool::listen(
            endpoint.value().host, endpoint.value().port, fabric);
        if (!listening.ok()) {
            std::cerr << "fare-run: " << listening.error() << '\n';
            return 1;
        }
        pool = std::move(listening).value();
        if (!port_file.empty()) write_port_file(port_file, pool->port());
        std::cerr << "fare-run: coordinating on " << endpoint.value().host
                  << ':' << pool->port() << ", waiting for " << min_workers
                  << " worker(s)\n";
        pool->wait_for_workers(min_workers);
        executor = std::make_unique<RemoteExecutor>(*pool);
    }

    SimSession session(options, std::move(executor), nullptr);
    if (!quiet) session.add_sink(std::make_unique<ConsoleTableSink>(std::cout));
    if (stream) session.add_sink(std::make_unique<StreamingLineSink>(std::cout));
    if (stats) session.add_sink(std::make_unique<SeedStatsSink>(std::cout));
    const ResultSet results = session.run(plan);

    write_outputs(plan.name, results, out_path, json_path, canonical);
    // Cache lifecycle report: what this run's disk cache held, reclaimed,
    // and evicted (the constructor's corrupt-line count included, so a
    // resumed sweep can see how much of the log it had to recompute).
    if (stats) {
        std::cout << "simd: " << simd::isa_name(simd::active_isa())
                  << " (detected " << simd::isa_name(simd::detected_isa())
                  << ")\n";
        const WorkloadArtefactCounts artefacts = workload_artefact_counts();
        std::cout << "workload artefacts: " << artefacts.built << " built, "
                  << artefacts.reused << " reused\n";
        if (const auto* disk = dynamic_cast<DiskCellCache*>(&session.cache()))
            print_cache_stats(disk->stats(), std::cout);
    }
    std::cerr << "fare-run: plan '" << plan.name << "' shard "
              << options.shard.label() << ": " << results.size()
              << " cells, " << session.cache_hits() << " cache hits\n";
    return 0;
}

}  // namespace
}  // namespace fare

int main(int argc, char** argv) {
    try {
        return fare::run(argc, argv);
    } catch (const fare::InvalidArgument& e) {
        std::cerr << "fare-run: " << e.what() << '\n';
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "fare-run: " << e.what() << '\n';
        return 1;
    }
}
