// fare-worker: one fabric worker process. Connects to a fare-run
// coordinator (--listen or --serve), receives CellSpecs, runs them, streams
// CellResults back, and heartbeats throughout — including while a cell
// trains, which is what lets the coordinator tell a slow worker from a dead
// one. Stateless: the cell cache lives with the coordinator's session.
//
//   fare-worker --connect HOST:PORT [--secret S] [--connect-retry-ms N]
//               [--heartbeat-ms N] [--quiet]
//
// The two fault hooks exist for tests and scripts/fleet_smoke.sh:
//   --hang-after N   complete N cells, then accept assigns but never answer
//                    (a straggler: heartbeats keep flowing)
//   --quit-after N   complete N cells, then drop the connection on the next
//                    assign (a crash with a cell in flight)
//
// Exit codes: 0 clean end-of-stream from the coordinator, 1 connection or
// protocol failure, 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "sim/remote_executor.hpp"

namespace fare {
namespace {

int usage(std::ostream& os, int code) {
    os << "fare-worker — fabric worker for fare-run --listen / --serve\n\n"
          "  fare-worker --connect HOST:PORT [options]\n"
          "    --secret S        shared fabric secret (defaults to the\n"
          "                      FARE_FABRIC_SECRET environment variable);\n"
          "                      required when the coordinator runs with one\n"
          "    --connect-retry-ms N\n"
          "                      keep retrying a refused connection for N ms\n"
          "                      before giving up (default 10000, 0 = one\n"
          "                      attempt) — lets workers start first\n"
          "    --heartbeat-ms N  heartbeat cadence (default 1000)\n"
          "    --hang-after N    fault hook: go silent after N cells\n"
          "    --quit-after N    fault hook: drop the link after N cells\n"
          "    --quiet           no log lines on stderr\n";
    return code;
}

int run(int argc, char** argv) {
    std::string endpoint;
    WorkerOptions options;
    options.log = &std::cerr;
    options.connect_retry_ms = 10000;
    if (const char* env_secret = std::getenv("FARE_FABRIC_SECRET"))
        options.secret = env_secret;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw InvalidArgument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--connect") endpoint = value();
        else if (arg == "--secret") options.secret = value();
        else if (arg == "--connect-retry-ms")
            options.connect_retry_ms = parse_flag(arg, value(), 0);
        else if (arg == "--heartbeat-ms")
            options.heartbeat_interval_ms = parse_flag(arg, value(), 1);
        else if (arg == "--hang-after")
            options.hang_after = parse_flag<std::size_t>(arg, value(), 1);
        else if (arg == "--quit-after")
            options.quit_after = parse_flag<std::size_t>(arg, value(), 1);
        else if (arg == "--quiet") {
            options.log = nullptr;
        } else {
            std::cerr << "fare-worker: unknown argument " << arg << "\n\n";
            return usage(std::cerr, 2);
        }
    }
    if (endpoint.empty()) return usage(std::cerr, 2);

    const Expected<net::Endpoint> parsed = net::parse_endpoint(endpoint);
    if (!parsed || parsed.value().port == 0) {
        std::cerr << "fare-worker: bad --connect endpoint '" << endpoint
                  << "' (want HOST:PORT)\n";
        return 2;
    }
    return run_worker(parsed.value().host, parsed.value().port, options);
}

}  // namespace
}  // namespace fare

int main(int argc, char** argv) {
    try {
        return fare::run(argc, argv);
    } catch (const fare::InvalidArgument& e) {
        std::cerr << "fare-worker: " << e.what() << '\n';
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "fare-worker: " << e.what() << '\n';
        return 1;
    }
}
