#pragma once
// SocketServer — the mapping daemon's wire front end: line-delimited
// JSON request/response frames, one verb per line, dispatched onto a
// JobManager + BatchEngine pair the server owns.  Connections arrive
// over a Unix-domain socket (always) and, when enabled, a TCP listener
// speaking the identical protocol.
//
// Request:  {"verb": "...", ...verb fields}
// Response: {"ok": true, ...payload} | {"ok": false, "error": "..."}
//           (new error classes — auth, quotas, protocol — also carry a
//           stable "code" field; see docs/protocol.md, the normative
//           wire reference)
//
// Verbs (normative field reference in docs/protocol.md):
//   hello            {min_version?,        -> {version, min_version,
//                     max_version?}           max_version} — protocol
//                                            negotiation: the connection
//                                            switches to min(client max,
//                                            server max) when the ranges
//                                            overlap, else answers code
//                                            "version_mismatch" and stays
//                                            at v1.  Never sending hello
//                                            keeps the v1 JSON-lines
//                                            protocol byte-for-byte.
//   auth             {token}               -> {} (marks the connection
//                                            authenticated)
//   register_network {id, network}        -> {}
//   submit           {job, priority?}     -> {ticket}
//   poll             {ticket}             -> {state, result?}
//   wait             {ticket}             -> {state, result?} (answered
//                                            when the job turns terminal)
//   cancel           {ticket}             -> {cancelled}
//   apply_link_updates {network, updates} -> {results: [...]}  (re-solved
//                                            subscriptions)
//   pause | resume   {}                   -> {}  (gate dispatch)
//   stats            {}                   -> queue/engine/cache counters,
//                                            connection/auth counters,
//                                            uptime + build info, and the
//                                            compact metrics snapshot
//   metrics          {}                   -> {text} Prometheus exposition
//   slowlog          {state?, kernel?,    -> {entries: [...]} slow spans,
//                     min_ms?}               filtered server-side
//   trace            {}                   -> {trace: {...}} Chrome-trace
//                                            JSON: drains the profiler
//                                            rings and attaches every
//                                            retained terminal span
//   drain            {timeout_ms?}        -> {drained, ...} (stop
//                                            admission, finish or time
//                                            out in-flight work, report
//                                            when safe to kill)
//   shutdown         {}                   -> {} and the server exits
//
// Dispatch: one verb table (SocketServer::dispatch) maps each verb name
// to its one handler and says whether it is served unauthenticated.
// Wire requests and handle() both go through it.  Answers that carry
// solve results (poll, wait, apply_link_updates) are encoded in one
// place: inline JSON on v1, a control line plus a result-table frame
// on v2.
//
// Trace ids: a request carrying "trace_id" is handled with that id as
// the thread's util::trace_context (so its log lines and profiler
// events carry it), a submitted job inherits it unless the job set its
// own, and the id is echoed on the response frame unless the answer
// already carries one (a job's own id wins on poll/wait).
//
// A malformed or failing request answers ok=false on that frame; the
// connection (and the daemon) stays up — clients must never be able to
// crash the server with bad input.  An overlong unterminated frame
// (the 16MiB byte cap) answers one error frame and closes that
// connection: the stream cannot re-sync.
//
// Concurrency model: a fixed pool of epoll IO workers (ConnectionMux)
// multiplexes every connection — the daemon's thread count is constant
// in the number of clients, where the previous thread-per-connection
// loop grew one OS thread per LIVE client.  The formerly blocking verbs
// are completion-driven instead of thread-parking: `wait` registers a
// JobManager callback that sends the response when the job turns
// terminal, `drain` arms an idle notification plus a budget timer.  An
// idle persistent client or a pending `wait` therefore costs a buffer,
// not a thread, and never stalls other clients.  Request handling
// itself is thread-safe (JobManager and BatchEngine carry their own
// locks).
//
// Optional shared-token auth (auth_token option / serve --auth-token):
// until a connection presents the token via the `auth` verb
// (constant-time compare), every verb except `auth` and `stats`
// answers {"ok": false, "code": "unauthenticated"}.  Per-connection
// quotas (max_inflight_jobs / max_inflight_bytes) bound what one
// client may keep in flight; rejections carry code "quota_jobs" /
// "quota_bytes" and bump elpc_quota_rejections_total.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "daemon/connection_mux.hpp"
#include "daemon/job_manager.hpp"
#include "daemon/trace.hpp"
#include "service/batch_engine.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"

namespace elpc::daemon {

struct SocketServerOptions {
  /// Forwarded to the owned BatchEngine.
  std::size_t threads = 0;
  std::size_t session_history_bytes = 0;
  /// Incremental delta-driven re-solves for subscribed frame-rate jobs
  /// (service::BatchEngineOptions::incremental); `stats` reports
  /// hits/misses and columns reused.
  bool incremental = false;
  /// Frame-rate kernel for every ELPC solve (resolved at engine
  /// construction; `stats` reports the result and per-kernel job counts).
  core::kernels::Kind kernel = core::kernels::Kind::kAuto;
  /// Forwarded to the owned JobManager.
  bool start_paused = false;
  /// Mapper resolution for the engine (empty = built-in "ELPC" only;
  /// the CLI installs the full registry).
  service::MapperFactory factory;
  /// Pinned-revision lease (service::BatchEngineOptions::
  /// revision_lease_ms); 0 = leases off.
  std::int64_t revision_lease_ms = 0;
  /// Lease headroom per deadline job beyond its deadline_ms.
  std::int64_t lease_grace_ms = 1000;
  /// Fault-injection spec applied at construction (the ELPC_FAULTS
  /// format, util::FaultInjector::configure); empty = leave the
  /// process-global injector as it is.  Chaos/CI use only.
  std::string faults;
  std::uint64_t fault_seed = 1;
  /// Slow-solve threshold (`serve --slow-ms`): a terminal job whose
  /// end-to-end time reaches this many milliseconds is retained in the
  /// slowlog ring, dumpable via the `slowlog` verb.  0 = off.
  std::int64_t slow_ms = 0;
  /// Slowlog ring capacity (oldest evicted first).
  std::size_t slowlog_capacity = 128;
  /// Enable the phase profiler at construction (`serve --profile`):
  /// solves record begin/end events into the per-thread rings that the
  /// `trace` verb drains.  Off, the instrumentation costs one relaxed
  /// atomic load per scope; the `trace` verb still answers (spans only).
  bool profile = false;
  /// Trace ring capacity: terminal spans retained for the `trace`
  /// verb's timeline export (EVERY terminal job lands here, unlike the
  /// slowlog's threshold).
  std::size_t tracelog_capacity = 2048;

  // ---- front-end (multiplexer / TCP / auth / quota) options ----
  /// Serve the same protocol over TCP as well (`serve --tcp host:port`).
  /// Port 0 binds an ephemeral port; tcp_port() reports the result.
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;
  /// Shared-token auth (empty = off).  Compared constant-time; failed
  /// attempts bump elpc_auth_failures_total.
  std::string auth_token;
  /// Epoll IO worker threads (ConnectionMux; the daemon's steady-state
  /// thread cost for any number of connections).
  std::size_t io_workers = 2;
  /// Per-connection pending-response cap before a slow consumer is
  /// disconnected (reason "backpressure").
  std::size_t max_write_queue_bytes = 8ull << 20;
  /// Per-connection quota on jobs submitted and not yet terminal
  /// (0 = unlimited); exceeded submits answer code "quota_jobs".
  std::size_t max_inflight_jobs = 0;
  /// Per-connection quota on the summed request bytes of in-flight
  /// jobs (0 = unlimited); exceeded submits answer code "quota_bytes".
  std::size_t max_inflight_bytes = 0;
};

class SocketServer {
 public:
  /// Binds `socket_path` (and the TCP endpoint when enabled)
  /// immediately — throws util::SocketError when either is unusable;
  /// serving starts with serve().
  SocketServer(std::string socket_path, SocketServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Starts the IO workers and blocks until a `shutdown` verb or
  /// stop(); tears the multiplexer down before returning.
  void serve();

  /// Unblocks serve() from another thread (idempotent).
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return listener_.path();
  }
  /// The bound TCP port (resolves a port-0 request), or -1 with TCP off.
  [[nodiscard]] int tcp_port() const {
    return tcp_listener_ ? tcp_listener_->port() : -1;
  }

  /// The owned engine/manager, exposed for in-process tests that compare
  /// daemon answers against direct calls.
  [[nodiscard]] service::BatchEngine& engine() { return *engine_; }
  [[nodiscard]] JobManager& manager() { return *manager_; }

  /// The daemon's one metrics source of truth: the engine's and
  /// manager's counters/histograms land here, and a collect callback
  /// refreshes the queue/cache/connection gauges from live stats at
  /// every exposition (`metrics` verb, the snapshot embedded in
  /// `stats`).
  [[nodiscard]] util::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] SlowLog& slowlog() { return slowlog_; }
  /// Every terminal span (the `trace` verb's parent slices), not just
  /// the slow ones.
  [[nodiscard]] SlowLog& tracelog() { return tracelog_; }

  /// Serves one already-parsed request through the same verb table as
  /// the wire, as a connection-less, authorized v1 exchange, and returns
  /// the answer frame (thread-safe).  Never throws; failures become
  /// {"ok": false, "error": ...}.  No auth gate or quota applies, and
  /// results come back inline as v1 JSON.  `auth`, `hello`, `wait` and
  /// `drain` act on a connection, so they answer ok=false ("verb 'wait'
  /// needs a connection"); in-process callers block on JobManager::wait
  /// / drain instead.
  [[nodiscard]] util::Json handle(const util::Json& request);

 private:
  /// Per-connection protocol state, attached to MuxConnection::
  /// user_state.  The flags are worker-only; the quota counters are
  /// atomics because completion callbacks decrement them from engine
  /// worker threads.
  struct ConnState {
    bool authenticated = false;
    /// Negotiated wire protocol version (1 until a successful `hello`).
    /// Atomic because async completion callbacks (wait) read it from
    /// engine worker threads while the owning worker may renegotiate.
    std::atomic<int> version{1};
    std::atomic<std::size_t> inflight_jobs{0};
    std::atomic<std::size_t> inflight_bytes{0};
  };

  /// One request on its way through the verb table (socket_server.cpp).
  struct Exchange;

  /// The mux's on_frame callback: parses the line and dispatches it.
  void handle_frame(const std::shared_ptr<MuxConnection>& conn,
                    const std::string& line);
  /// The mux's on_binary_frame callback: apply_link_updates' bulk form
  /// (a kLinkUpdateTable frame).  A binary frame on a connection that
  /// never negotiated v2 answers code "protocol".
  void handle_binary_frame(const std::shared_ptr<MuxConnection>& conn,
                           const wire::FrameHeader& header,
                           std::string_view payload);
  /// The one dispatcher behind both entry points: looks the verb up in
  /// the verb table, refuses gated verbs on an unauthenticated
  /// connection, and runs the handler under the request's trace
  /// context; any exception answers ok=false.
  void dispatch(Exchange& ex);

  // One handler per verb, named by dispatch()'s table.  Each answers
  // through Exchange::reply, or later from a completion callback.
  void verb_auth(Exchange& ex);
  void verb_hello(Exchange& ex);
  void verb_register_network(Exchange& ex);
  void verb_submit(Exchange& ex);
  void verb_poll(Exchange& ex);
  void verb_wait(Exchange& ex);
  void verb_cancel(Exchange& ex);
  void verb_apply_link_updates(Exchange& ex);
  void verb_pause(Exchange& ex);
  void verb_resume(Exchange& ex);
  void verb_stats(Exchange& ex);
  void verb_metrics(Exchange& ex);
  void verb_slowlog(Exchange& ex);
  void verb_trace(Exchange& ex);
  void verb_drain(Exchange& ex);
  void verb_shutdown(Exchange& ex);
  /// Registers the collect callback that refreshes the daemon gauges
  /// (queue depth, cache occupancy, pins, connections, uptime) from
  /// live stats.
  void register_collectors();

  util::UnixListener listener_;
  std::unique_ptr<util::TcpListener> tcp_listener_;
  /// Declared before the engine/manager so the metric references they
  /// resolve at construction outlive them on teardown.
  util::MetricsRegistry metrics_;
  SlowLog slowlog_;
  SlowLog tracelog_;
  SocketServerOptions options_;
  std::chrono::steady_clock::time_point started_;
  std::int64_t started_unix_ms_ = 0;
  std::unique_ptr<service::BatchEngine> engine_;
  std::unique_ptr<JobManager> manager_;
  util::Counter* auth_failures_c_ = nullptr;
  util::Counter* quota_rejections_c_ = nullptr;
  /// Live connections that negotiated protocol v2 (incremented on a
  /// successful hello, decremented on that connection's disconnect);
  /// live v1 = mux connection count minus this.
  std::atomic<std::size_t> live_v2_{0};
  /// Set by the shutdown verb (any IO worker); wakes serve().
  std::atomic<bool> shutdown_requested_{false};
  std::mutex serve_mutex_;
  std::condition_variable serve_cv_;
  /// Last member: its workers call back into everything above, so it
  /// must die (stop) first.
  std::unique_ptr<ConnectionMux> mux_;
};

}  // namespace elpc::daemon
