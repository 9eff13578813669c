#include "sim/remote_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "net/protocol.hpp"
#include "sim/cell.hpp"

namespace fare {

namespace {

using Clock = std::chrono::steady_clock;
using net::WireMessage;

std::chrono::milliseconds ms(int count) {
    return std::chrono::milliseconds(count);
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

struct WorkerPool::Impl {
    /// One connected fare-worker. Lifetime: shared_ptr — the map keeps the
    /// canonical reference; the acceptor's reaper and an in-progress assign
    /// send may briefly hold extra ones, so a worker dying mid-send never
    /// frees the socket under the sender.
    struct Worker {
        std::uint64_t id = 0;
        net::Socket socket;
        std::string label;
        std::mutex write_mu;  ///< serializes frames onto the socket
        std::thread reader;
        bool alive = true;           ///< guarded by pool mu
        std::uint64_t job = 0;       ///< wire job id in flight (0 = idle)
    };

    /// Reader-to-scheduler notifications, drained by RemoteExecutor::execute.
    struct Event {
        enum class Kind { kResult, kCellError, kGone };
        Kind kind;
        std::uint64_t worker = 0;
        std::uint64_t job = 0;  ///< 0 in kGone = worker was idle
        CellResult result;      ///< kResult
        std::string error;      ///< kCellError / kGone
    };

    FabricConfig config;
    net::Listener listener;
    std::thread acceptor;

    mutable std::mutex mu;
    std::condition_variable cv;
    std::map<std::uint64_t, std::shared_ptr<Worker>> workers;
    std::deque<Event> events;
    SubmitterFn submitter;
    bool stopping = false;
    std::uint64_t next_worker_id = 1;
    std::uint64_t next_job_id = 1;

    std::mutex log_mu;

    void log(const std::string& line) {
        if (!config.log) return;
        std::lock_guard<std::mutex> lk(log_mu);
        *config.log << "fabric: " << line << '\n';
    }

    /// Fresh challenge nonce per handshake; unpredictability (not secrecy)
    /// is what keeps a recorded proof from replaying.
    std::string make_challenge() {
        static std::atomic<std::uint64_t> counter{0};
        std::random_device rd;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%08x%08x%016llx", rd(), rd(),
                      static_cast<unsigned long long>(
                          counter.fetch_add(1) + 1));
        return buf;
    }

    std::size_t alive_count_locked() const {
        std::size_t n = 0;
        for (const auto& [id, w] : workers)
            if (w->alive) ++n;
        return n;
    }

    void accept_loop() {
        while (true) {
            {
                std::lock_guard<std::mutex> lk(mu);
                if (stopping) return;
            }
            reap_dead();
            Expected<net::Socket> peer = listener.accept(250);
            if (!peer) continue;  // timeout, or the listener was shut down
            handle_peer(std::move(peer).value());
        }
    }

    /// Handshake runs inline on the accept thread with a short deadline: a
    /// peer that won't say hello within it is dropped. (A hostile peer can
    /// stall accepts that long; this is a trusted-LAN tool.)
    void handle_peer(net::Socket sock) {
        const std::string label = sock.peer_label();
        Expected<std::optional<WireMessage>> hello = net::recv_message(sock, 5000);
        if (!hello.ok() || !hello.value().has_value()) {
            log("dropped " + label + ": " +
                (hello.ok() ? "closed before hello" : hello.error()));
            return;
        }
        const WireMessage& h = *hello.value();
        if (h.type != WireMessage::Type::kHello) {
            log("dropped " + label + ": expected hello, got " +
                net::wire_type_name(h.type));
            return;
        }
        if (h.protocol != net::kProtocolVersion) {
            log("dropped " + label + ": protocol " + std::to_string(h.protocol) +
                " != " + std::to_string(net::kProtocolVersion));
            return;
        }
        SubmitterFn handler;
        if (h.role == net::kRoleSubmitter) {
            {
                std::lock_guard<std::mutex> lk(mu);
                handler = submitter;
            }
            if (!handler) {
                log("refused submitter " + label + " (not in serve mode)");
                return;
            }
        }
        // Shared-secret handshake: challenge in the welcome, proof back.
        // Applies to workers and submitters alike; a wrong or missing proof
        // costs the connection before the peer touches any plan state.
        std::string challenge;
        if (!config.secret.empty()) challenge = make_challenge();
        if (!net::send_message(sock, net::make_welcome(challenge))) return;
        if (!challenge.empty()) {
            Expected<std::optional<WireMessage>> auth =
                net::recv_message(sock, 5000);
            if (!auth.ok() || !auth.value().has_value()) {
                log("dropped " + label + ": no auth proof (" +
                    (auth.ok() ? "closed" : auth.error()) + ")");
                return;
            }
            const WireMessage& a = *auth.value();
            if (a.type != WireMessage::Type::kAuth) {
                log("dropped " + label + ": expected auth, got " +
                    net::wire_type_name(a.type));
                return;
            }
            if (a.proof != net::auth_proof(config.secret, challenge, h.role)) {
                log("dropped " + label + ": auth proof mismatch (wrong "
                    "--secret?)");
                return;
            }
        }
        if (h.role == net::kRoleSubmitter) {
            log("submitter connected: " + label);
            handler(std::move(sock));
            return;
        }
        auto worker = std::make_shared<Worker>();
        worker->socket = std::move(sock);
        worker->label = label;
        Worker* raw = worker.get();
        {
            std::lock_guard<std::mutex> lk(mu);
            if (stopping) return;
            worker->id = next_worker_id++;
            workers[worker->id] = worker;
        }
        raw->reader = std::thread([this, raw] { reader_loop(*raw); });
        log("worker " + std::to_string(raw->id) + " connected: " + label);
        cv.notify_all();
    }

    /// One thread per worker: pull frames until the connection dies. The
    /// recv timeout doubles as the heartbeat deadline — a worker that sends
    /// nothing (not even a heartbeat) for heartbeat_timeout_ms is dead.
    void reader_loop(Worker& w) {
        while (true) {
            Expected<std::optional<WireMessage>> msg =
                net::recv_message(w.socket, config.heartbeat_timeout_ms);
            if (!msg.ok()) {
                drop(w, net::is_idle_timeout(msg.error()) ? "heartbeat timeout"
                                                          : msg.error());
                return;
            }
            if (!msg.value().has_value()) {
                drop(w, "disconnected");
                return;
            }
            WireMessage m = *std::move(msg).value();
            switch (m.type) {
                case WireMessage::Type::kHeartbeat:
                    break;
                case WireMessage::Type::kResult: {
                    std::lock_guard<std::mutex> lk(mu);
                    events.push_back(Event{Event::Kind::kResult, w.id, m.job,
                                           std::move(m.result), {}});
                    cv.notify_all();
                    break;
                }
                case WireMessage::Type::kCellError: {
                    std::lock_guard<std::mutex> lk(mu);
                    events.push_back(Event{Event::Kind::kCellError, w.id, m.job,
                                           {}, std::move(m.error)});
                    cv.notify_all();
                    break;
                }
                default:
                    drop(w, std::string("unexpected ") +
                                net::wire_type_name(m.type));
                    return;
            }
        }
    }

    /// Declare a worker dead: close its socket and tell the scheduler which
    /// job (if any) it took down with it. Called from its own reader thread.
    void drop(Worker& w, const std::string& why) {
        {
            std::lock_guard<std::mutex> wl(w.write_mu);
            w.socket.shutdown_both();
        }
        std::lock_guard<std::mutex> lk(mu);
        if (!w.alive) return;
        w.alive = false;
        events.emplace_back(Event::Kind::kGone, w.id, w.job, CellResult{}, why);
        cv.notify_all();
        log("worker " + std::to_string(w.id) + " (" + w.label + ") lost: " + why);
    }

    /// Join and release workers whose readers have exited. Runs on the
    /// accept thread between accepts, so a long-lived daemon doesn't
    /// accumulate zombie threads across worker restarts.
    void reap_dead() {
        std::vector<std::shared_ptr<Worker>> dead;
        {
            std::lock_guard<std::mutex> lk(mu);
            for (auto it = workers.begin(); it != workers.end();) {
                if (!it->second->alive) {
                    dead.push_back(std::move(it->second));
                    it = workers.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const std::shared_ptr<Worker>& w : dead)
            if (w->reader.joinable()) w->reader.join();
    }

    void stop() {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
        }
        listener.shutdown();
        cv.notify_all();
        if (acceptor.joinable()) acceptor.join();
        std::map<std::uint64_t, std::shared_ptr<Worker>> remaining;
        {
            std::lock_guard<std::mutex> lk(mu);
            remaining.swap(workers);
        }
        for (const auto& [id, w] : remaining) {
            {
                std::lock_guard<std::mutex> wl(w->write_mu);
                w->socket.shutdown_both();
            }
            if (w->reader.joinable()) w->reader.join();
        }
    }
};

WorkerPool::WorkerPool(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

WorkerPool::~WorkerPool() {
    if (impl_) impl_->stop();
}

Expected<std::unique_ptr<WorkerPool>> WorkerPool::listen(
    const std::string& host, std::uint16_t port, FabricConfig config) {
    Expected<net::Listener> listener = net::Listener::bind(host, port);
    if (!listener)
        return Expected<std::unique_ptr<WorkerPool>>::failure(listener.error());
    auto impl = std::make_unique<Impl>();
    impl->config = config;
    impl->listener = std::move(listener).value();
    Impl* raw = impl.get();
    impl->acceptor = std::thread([raw] { raw->accept_loop(); });
    return std::unique_ptr<WorkerPool>(new WorkerPool(std::move(impl)));
}

std::uint16_t WorkerPool::port() const { return impl_->listener.bound_port(); }

std::size_t WorkerPool::connected() const {
    std::lock_guard<std::mutex> lk(impl_->mu);
    return impl_->alive_count_locked();
}

bool WorkerPool::wait_for_workers(std::size_t n, int timeout_ms) {
    std::unique_lock<std::mutex> lk(impl_->mu);
    const auto ready = [&] { return impl_->alive_count_locked() >= n; };
    if (timeout_ms < 0) {
        impl_->cv.wait(lk, ready);
        return true;
    }
    return impl_->cv.wait_for(lk, ms(timeout_ms), ready);
}

void WorkerPool::set_submitter_handler(SubmitterFn handler) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->submitter = std::move(handler);
}

// ---------------------------------------------------------------------------
// RemoteExecutor
// ---------------------------------------------------------------------------

RemoteExecutor::RemoteExecutor(WorkerPool& pool) : pool_(pool) {}

std::size_t RemoteExecutor::width() const {
    const std::size_t n = pool_.connected();
    return n > 0 ? n : 1;
}

void RemoteExecutor::execute(const std::vector<const CellSpec*>& jobs,
                             const DoneFn& done) {
    if (jobs.empty()) return;
    WorkerPool::Impl& pool = *pool_.impl_;
    const FabricConfig& config = pool.config;

    struct JobState {
        const CellSpec* spec = nullptr;
        int attempts = 0;  ///< assignments consumed (deals + re-deals)
        bool finished = false;
        int running = 0;  ///< live assignments in flight
        Clock::time_point eligible = Clock::time_point::min();  ///< backoff
        Clock::time_point deadline = Clock::time_point::max();  ///< straggler
        std::string last_error;
    };
    std::vector<JobState> states(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) states[j].spec = jobs[j];

    // Wire ids are globally fresh per execution, so a result straggling in
    // from an earlier plan misses this map and is discarded.
    std::map<std::uint64_t, std::size_t> wire_to_local;
    std::size_t completed = 0;

    struct Assignment {
        std::shared_ptr<WorkerPool::Impl::Worker> worker;
        std::uint64_t wire = 0;
        const CellSpec* spec = nullptr;
    };

    std::unique_lock<std::mutex> lk(pool.mu);
    while (completed < jobs.size()) {
        const Clock::time_point now = Clock::now();

        // 1. Drain reader events.
        while (!pool.events.empty()) {
            WorkerPool::Impl::Event event = std::move(pool.events.front());
            pool.events.pop_front();
            const auto worker_it = pool.workers.find(event.worker);
            if (worker_it != pool.workers.end() &&
                worker_it->second->job == event.job)
                worker_it->second->job = 0;  // the worker is free again
            const auto job_it = wire_to_local.find(event.job);
            if (job_it == wire_to_local.end()) continue;  // stale / unknown
            JobState& job = states[job_it->second];
            switch (event.kind) {
                case WorkerPool::Impl::Event::Kind::kResult:
                    --job.running;
                    if (!job.finished) {
                        // First result wins. Cells are pure functions of
                        // their specs, so any duplicate from a straggler
                        // re-deal carries an identical payload — dropping it
                        // keeps the merged output deterministic.
                        job.finished = true;
                        ++completed;
                        lk.unlock();
                        done(job_it->second, std::move(event.result));
                        lk.lock();
                    }
                    break;
                case WorkerPool::Impl::Event::Kind::kCellError:
                    --job.running;
                    if (!job.finished) {
                        job.last_error = event.error;
                        job.eligible =
                            now + ms(config.retry_backoff_ms)
                                      * (1 << std::min(job.attempts - 1, 10));
                        pool.log("cell failed on worker " +
                                 std::to_string(event.worker) + ": " +
                                 event.error);
                    }
                    break;
                case WorkerPool::Impl::Event::Kind::kGone:
                    --job.running;
                    if (!job.finished) {
                        job.last_error = "worker lost: " + event.error;
                        job.eligible =
                            now + ms(config.retry_backoff_ms)
                                      * (1 << std::min(job.attempts - 1, 10));
                        pool.log("re-dealing cell after worker " +
                                 std::to_string(event.worker) + " loss");
                    }
                    break;
            }
        }

        // 2. Fail fast once a cell is out of attempts with nothing in
        //    flight: retrying forever would wedge the plan.
        for (const JobState& job : states) {
            if (!job.finished && job.running == 0 &&
                job.attempts >= config.max_attempts)
                throw ResourceError(
                    "plan cell '" + job.spec->key() + "' failed after " +
                    std::to_string(job.attempts) + " attempt(s): " +
                    (job.last_error.empty() ? "no workers" : job.last_error));
        }

        // 3. Deal eligible cells to idle workers. A cell qualifies when it
        //    has no live assignment and its backoff expired, or (straggler
        //    re-deal) its deadline passed while a worker sat on it.
        std::vector<Assignment> assignments;
        for (auto& [id, worker] : pool.workers) {
            if (!worker->alive || worker->job != 0) continue;
            for (std::size_t j = 0; j < states.size(); ++j) {
                JobState& job = states[j];
                if (job.finished || job.attempts >= config.max_attempts)
                    continue;
                const bool fresh = job.running == 0 && now >= job.eligible;
                const bool straggling = job.running > 0 &&
                                        config.cell_deadline_ms > 0 &&
                                        now >= job.deadline;
                if (!fresh && !straggling) continue;
                ++job.attempts;
                ++job.running;
                job.deadline = config.cell_deadline_ms > 0
                                   ? now + ms(config.cell_deadline_ms)
                                   : Clock::time_point::max();
                const std::uint64_t wire = pool.next_job_id++;
                wire_to_local[wire] = j;
                worker->job = wire;
                if (straggling)
                    pool.log("straggler: dealing cell again to worker " +
                             std::to_string(id));
                assignments.push_back(Assignment{worker, wire, job.spec});
                break;
            }
        }

        // 4. Send outside the pool lock (sends can block on a full socket
        //    buffer; readers must stay able to deliver events meanwhile).
        if (!assignments.empty()) {
            lk.unlock();
            for (const Assignment& a : assignments) {
                std::lock_guard<std::mutex> wl(a.worker->write_mu);
                const Expected<bool> sent = net::send_message(
                    a.worker->socket, net::make_assign(a.wire, *a.spec));
                // A failed send means the connection is gone; the reader
                // notices the shutdown and emits kGone, which re-deals.
                if (!sent.ok()) a.worker->socket.shutdown_both();
            }
            lk.lock();
            continue;  // re-scan immediately: events may have landed
        }

        // 5. Nothing to do right now — sleep until an event, a new worker,
        //    a backoff expiry, or a straggler deadline.
        pool.cv.wait_for(lk, ms(100), [&] { return !pool.events.empty(); });
    }
}

// ---------------------------------------------------------------------------
// run_worker
// ---------------------------------------------------------------------------

namespace {

void worker_log(const WorkerOptions& options, const std::string& line) {
    if (options.log) *options.log << "fare-worker: " << line << std::endl;
}

}  // namespace

int run_worker(const std::string& host, std::uint16_t port,
               WorkerOptions options) {
    // Connect with bounded backoff: workers routinely start before the
    // coordinator binds its port, so a refused connection within the retry
    // window is a scheduling race, not an error.
    const Clock::time_point give_up =
        Clock::now() + ms(options.connect_retry_ms);
    Expected<net::Socket> connected = net::tcp_connect(host, port);
    while (!connected.ok() && Clock::now() < give_up) {
        worker_log(options, "connect failed (" + connected.error() +
                                "), retrying");
        std::this_thread::sleep_for(ms(250));
        connected = net::tcp_connect(host, port);
    }
    if (!connected.ok()) {
        worker_log(options, connected.error());
        return 1;
    }
    net::Socket socket = std::move(connected).value();
    const Expected<bool> shaken = net::client_handshake(
        socket, net::kRoleWorker, options.secret, 10000);
    if (!shaken.ok()) {
        worker_log(options, shaken.error());
        return 1;
    }
    worker_log(options, "connected to " + host + ":" + std::to_string(port));
    // ISA hello: makes mixed fleets auditable — with bit-identical kernels a
    // heterogeneous fleet is still deterministic, but the log shows who ran
    // what.
    worker_log(options, std::string("simd ") + simd::isa_name(simd::active_isa()) +
                            " (detected " + simd::isa_name(simd::detected_isa()) +
                            ")");

    std::mutex write_mu;
    std::atomic<bool> stop{false};
    std::thread heartbeat([&] {
        // Sleep in short slices so shutdown is prompt; keep beating even
        // while the main thread trains a cell — that's what distinguishes a
        // slow worker from a dead one on the coordinator.
        int slept = 0;
        while (!stop.load()) {
            std::this_thread::sleep_for(ms(50));
            slept += 50;
            if (slept < options.heartbeat_interval_ms) continue;
            slept = 0;
            std::lock_guard<std::mutex> lk(write_mu);
            if (!net::send_message(socket, net::make_heartbeat()).ok()) return;
        }
    });

    std::size_t completed = 0;
    bool hung = false;
    int code = 0;
    while (true) {
        Expected<std::optional<WireMessage>> msg = net::recv_message(socket, -1);
        if (!msg.ok()) {
            worker_log(options, msg.error());
            code = 1;
            break;
        }
        if (!msg.value().has_value()) break;  // coordinator hung up: done
        WireMessage m = *std::move(msg).value();
        if (m.type != WireMessage::Type::kAssign) {
            worker_log(options, std::string("unexpected ") +
                                    net::wire_type_name(m.type));
            code = 1;
            break;
        }
        if (options.quit_after > 0 && completed >= options.quit_after) {
            // Scripted crash: hard-close with a cell in flight.
            worker_log(options, "quit_after reached — dropping connection");
            break;
        }
        if (hung || (options.hang_after > 0 && completed >= options.hang_after)) {
            // Scripted straggler: swallow the assign, keep heartbeating.
            if (!hung) worker_log(options, "hang_after reached — going silent");
            hung = true;
            continue;
        }
        try {
            CellResult result = run_cell(m.spec);
            std::lock_guard<std::mutex> lk(write_mu);
            if (!net::send_message(socket, net::make_result(m.job, result))
                     .ok()) {
                code = 1;
                break;
            }
        } catch (const std::exception& e) {
            worker_log(options, std::string("cell failed: ") + e.what());
            std::lock_guard<std::mutex> lk(write_mu);
            net::send_message(socket, net::make_cell_error(m.job, e.what()));
        }
        ++completed;
    }

    stop.store(true);
    socket.shutdown_both();
    heartbeat.join();
    worker_log(options, "exiting after " + std::to_string(completed) +
                            " cell(s), code " + std::to_string(code));
    return code;
}

}  // namespace fare
