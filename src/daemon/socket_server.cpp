#include "daemon/socket_server.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "daemon/error_codes.hpp"
#include "daemon/trace_export.hpp"
#include "graph/serialize.hpp"
#include "service/serialize.hpp"
#include "util/cpu_features.hpp"
#include "util/fault_injector.hpp"
#include "util/profiler.hpp"
#include "util/strings.hpp"
#include "util/trace_context.hpp"

namespace elpc::daemon {

namespace {

util::Json ok_response() {
  util::Json response = util::JsonObject{};
  response.set("ok", true);
  return response;
}

util::Json error_response(const std::string& message) {
  util::Json response = util::JsonObject{};
  response.set("ok", false);
  response.set("error", message);
  return response;
}

/// Error frame with a stable machine-readable code — used only by the
/// error classes introduced with the multiplexed front end (auth,
/// quotas, protocol framing), so pre-existing error texts stay
/// byte-identical for clients that match on them.
util::Json error_response(const std::string& message,
                          const std::string& code) {
  util::Json response = error_response(message);
  response.set("code", code);
  return response;
}

/// {"ok", "ticket", "state", "priority", "result"?} — the poll/wait
/// payload.  The result entry appears once the job is terminal.
util::Json status_response(const JobStatus& status) {
  util::Json response = ok_response();
  response.set("ticket", status.ticket);
  response.set("state", job_state_name(status.state));
  response.set("priority", status.priority);
  if (!status.trace_id.empty()) {
    response.set("trace_id", status.trace_id);
  }
  if (status.terminal()) {
    const util::ProfileScope serialize_phase("serialize", "daemon");
    response.set("result", service::result_entry_to_json(status.result));
  }
  if (status.shutting_down) {
    // `wait` released without a terminal state because the daemon is
    // going down — the state will never advance, so don't re-wait.
    response.set("shutting_down", true);
  }
  return response;
}

/// The v2 counterpart of status_response for terminal statuses: the
/// same fields minus "result", plus the "payload" marker announcing the
/// adjacent binary result-table frame that carries the entry instead.
/// A v2 client reinflates {control, frame} into exactly the v1 JSON.
util::Json status_control_v2(const JobStatus& status) {
  util::Json response = ok_response();
  response.set("ticket", status.ticket);
  response.set("state", job_state_name(status.state));
  response.set("priority", status.priority);
  if (!status.trace_id.empty()) {
    response.set("trace_id", status.trace_id);
  }
  response.set("payload", "result");
  if (status.shutting_down) {
    response.set("shutting_down", true);
  }
  return response;
}

/// Negotiation math shared by the framed hello handler and the direct
/// handle() path: intersect the client's advertised range with ours.
/// `negotiated` is 0 when the ranges do not overlap (the response then
/// carries code "version_mismatch" and the connection stays at v1).
util::Json hello_response(const util::Json& request, int& negotiated) {
  negotiated = 0;
  std::int64_t client_min = 1;
  std::int64_t client_max = 1;
  if (const util::Json* v = request.find("min_version")) {
    client_min = v->as_int();
  }
  if (const util::Json* v = request.find("max_version")) {
    client_max = v->as_int();
  }
  if (client_min > client_max) {
    return error_response("malformed hello: min_version " +
                              std::to_string(client_min) +
                              " > max_version " + std::to_string(client_max),
                          codes::kProtocol);
  }
  const std::int64_t lo = std::max<std::int64_t>(
      client_min, static_cast<std::int64_t>(wire::kProtocolVersionMin));
  const std::int64_t hi = std::min<std::int64_t>(
      client_max, static_cast<std::int64_t>(wire::kProtocolVersionMax));
  util::Json response;
  if (lo > hi) {
    response = error_response(
        "no common protocol version (client speaks " +
            std::to_string(client_min) + ".." + std::to_string(client_max) +
            ", server speaks " + std::to_string(wire::kProtocolVersionMin) +
            ".." + std::to_string(wire::kProtocolVersionMax) + ")",
        codes::kVersionMismatch);
  } else {
    negotiated = static_cast<int>(hi);
    response = ok_response();
    response.set("version", negotiated);
  }
  response.set("min_version", wire::kProtocolVersionMin);
  response.set("max_version", wire::kProtocolVersionMax);
  return response;
}

Ticket ticket_field(const util::Json& request) {
  const std::int64_t raw = request.at("ticket").as_int();
  if (raw < 0) {
    throw std::invalid_argument("ticket must be >= 0");
  }
  return static_cast<Ticket>(raw);
}

/// The request's trace id ("" when absent/not a string).
std::string trace_field(const util::Json& request) {
  if (const util::Json* trace = request.find("trace_id")) {
    if (trace->is_string()) {
      return trace->as_string();
    }
  }
  return "";
}

/// Echo the request's trace id onto an out-of-band response (the async
/// and gate paths, which bypass handle()'s echo).
void echo_trace(const std::string& trace_id, util::Json& response) {
  if (!trace_id.empty() && !response.contains("trace_id")) {
    response.set("trace_id", trace_id);
  }
}

/// Current OS thread count of this process (/proc/self/status), the
/// `stats` field the 1000-idle-connection smoke asserts on: it must
/// stay at the fixed worker-pool size however many clients connect.
/// 0 when the proc file is unavailable.
std::int64_t os_thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  std::int64_t threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %lld",
                    reinterpret_cast<long long*>(&threads)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

/// Build/provenance block for `stats`: which toolchain produced this
/// daemon, which SIMD kernels the build compiled in, and what the CPU it
/// runs on actually supports — enough to explain a surprising `kernel`
/// value from a snapshot alone.
util::Json build_info_json() {
  util::Json info = util::JsonObject{};
#if defined(__clang__)
  info.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  info.set("compiler", std::string("gcc ") + __VERSION__);
#else
  info.set("compiler", "unknown");
#endif
  std::string compiled = "scalar";
  if (core::kernels::avx2_cell_kernel() != nullptr) {
    compiled += ",avx2";
  }
  if (core::kernels::avx512_cell_kernel() != nullptr) {
    compiled += ",avx512";
  }
  info.set("simd_compiled", compiled);
  const util::CpuFeatures cpu = util::CpuFeatures::get();
  std::string features;
  if (cpu.avx2) {
    features += "avx2";
  }
  if (cpu.avx512f) {
    features += features.empty() ? "avx512f" : ",avx512f";
  }
  info.set("cpu_features", features);
  std::string runnable;
  for (const core::kernels::Kind kind : core::kernels::available_kernels()) {
    if (!runnable.empty()) {
      runnable += ",";
    }
    runnable += core::kernels::kind_name(kind);
  }
  info.set("kernels_available", runnable);
  return info;
}

}  // namespace

SocketServer::SocketServer(std::string socket_path,
                           SocketServerOptions options)
    : listener_(socket_path),
      tcp_listener_(options.tcp ? std::make_unique<util::TcpListener>(
                                      options.tcp_host, options.tcp_port)
                                : nullptr),
      slowlog_(options.slowlog_capacity),
      tracelog_(options.tracelog_capacity),
      options_(std::move(options)),
      started_(std::chrono::steady_clock::now()),
      started_unix_ms_(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count()) {
  if (!options_.faults.empty()) {
    util::FaultInjector::instance().configure(options_.faults,
                                              options_.fault_seed);
  }
  if (options_.profile) {
    util::Profiler::set_enabled(true);
  }
  service::BatchEngineOptions engine_options;
  engine_options.threads = options_.threads;
  engine_options.shards = options_.threads;
  engine_options.factory = std::move(options_.factory);
  engine_options.session_history_bytes = options_.session_history_bytes;
  engine_options.kernel = options_.kernel;
  engine_options.incremental = options_.incremental;
  engine_options.revision_lease_ms = options_.revision_lease_ms;
  engine_options.lease_grace_ms = options_.lease_grace_ms;
  // One registry across the engine, the manager, and the server's own
  // gauges: the daemon's single metrics source of truth.
  engine_options.metrics = &metrics_;
  engine_ = std::make_unique<service::BatchEngine>(engine_options);

  JobManagerOptions manager_options;
  manager_options.start_paused = options_.start_paused;
  manager_options.metrics = &metrics_;
  manager_options.slowlog = &slowlog_;
  manager_options.slow_ms = options_.slow_ms;
  manager_options.tracelog = &tracelog_;
  manager_ = std::make_unique<JobManager>(*engine_, manager_options);

  auth_failures_c_ = &metrics_.counter("elpc_auth_failures_total",
                                       "Auth attempts with a bad token");
  quota_rejections_c_ =
      &metrics_.counter("elpc_quota_rejections_total",
                        "Requests rejected by per-connection quotas");
  register_collectors();

  MuxOptions mux_options;
  mux_options.io_workers = options_.io_workers;
  mux_options.max_write_queue_bytes = options_.max_write_queue_bytes;
  MuxCallbacks callbacks;
  callbacks.on_frame = [this](const std::shared_ptr<MuxConnection>& conn,
                              const std::string& line) {
    handle_frame(conn, line);
  };
  callbacks.on_binary_frame =
      [this](const std::shared_ptr<MuxConnection>& conn,
             const wire::FrameHeader& header, std::string_view payload) {
        handle_binary_frame(conn, header, payload);
      };
  callbacks.on_disconnect = [this](const std::shared_ptr<MuxConnection>& conn,
                                   const std::string& reason) {
    if (const auto state =
            std::static_pointer_cast<ConnState>(conn->user_state)) {
      if (state->version.load(std::memory_order_relaxed) >= 2) {
        live_v2_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    metrics_
        .counter("elpc_disconnects_total", "Connections closed, by reason",
                 {{"reason", reason}})
        .add();
  };
  callbacks.frame_error_line = [](const std::string& diagnostic) {
    return error_response("protocol error: " + diagnostic, codes::kProtocol)
        .dump();
  };
  mux_ = std::make_unique<ConnectionMux>(mux_options, std::move(callbacks));
  mux_->add_listener(&listener_);
  if (tcp_listener_) {
    mux_->add_listener(tcp_listener_.get());
  }
}

void SocketServer::register_collectors() {
  // Gauges refresh at exposition time from live stats (never recorded on
  // the solve path): resolve each child once here, set them in the
  // collect callback.  Cumulative-at-source values sampled this way are
  // declared with counter semantics for exposition.
  struct Gauges {
    util::Gauge* queued;
    util::Gauge* running;
    util::Gauge* paused;
    util::Gauge* draining;
    util::Gauge* sessions;
    util::Gauge* subscriptions;
    util::Gauge* cached_revisions;
    util::Gauge* cached_bytes;
    util::Gauge* pinned_revisions;
    util::Gauge* pinned_bytes;
    util::Gauge* checkpoints;
    util::Gauge* checkpoint_bytes;
    util::Gauge* uptime_ms;
    util::Gauge* arenas_created;
    util::Gauge* cache_evictions;
    util::Gauge* checkpoint_evictions;
    util::Gauge* lease_expirations;
    util::Gauge* slowlog_spans;
    util::Gauge* connections_unix;
    util::Gauge* connections_tcp;
    util::Gauge* connections_total_unix;
    util::Gauge* connections_total_tcp;
    util::Gauge* connections_v1;
    util::Gauge* connections_v2;
    util::Gauge* threads_os;
  };
  auto g = std::make_shared<Gauges>();
  g->queued = &metrics_.gauge("elpc_queued", "Jobs waiting for dispatch");
  g->running = &metrics_.gauge("elpc_running", "Jobs currently dispatched");
  g->paused = &metrics_.gauge("elpc_paused", "1 while dispatch is gated");
  g->draining = &metrics_.gauge("elpc_draining", "1 once drain closed admission");
  g->sessions = &metrics_.gauge("elpc_sessions", "Registered network sessions");
  g->subscriptions =
      &metrics_.gauge("elpc_subscriptions", "Jobs retained for re-solves");
  g->cached_revisions = &metrics_.gauge("elpc_cached_revisions",
                                        "Superseded revisions in cache");
  g->cached_bytes =
      &metrics_.gauge("elpc_cached_bytes", "Revision cache occupancy, bytes");
  g->pinned_revisions = &metrics_.gauge(
      "elpc_pinned_revisions", "Superseded revisions pinned by references");
  g->pinned_bytes =
      &metrics_.gauge("elpc_pinned_bytes", "Pinned revision bytes");
  g->checkpoints =
      &metrics_.gauge("elpc_checkpoints", "Incremental DP checkpoints held");
  g->checkpoint_bytes =
      &metrics_.gauge("elpc_checkpoint_bytes", "Checkpoint bytes held");
  g->uptime_ms =
      &metrics_.gauge("elpc_uptime_ms", "Milliseconds since daemon start");
  g->arenas_created = &metrics_.gauge(
      "elpc_arenas_created_total", "DP arenas ever constructed", {},
      /*expose_as_counter=*/true);
  g->cache_evictions = &metrics_.gauge(
      "elpc_cache_evictions_total", "Revision cache evictions", {},
      /*expose_as_counter=*/true);
  g->checkpoint_evictions = &metrics_.gauge(
      "elpc_checkpoint_evictions_total", "Checkpoint evictions", {},
      /*expose_as_counter=*/true);
  g->lease_expirations = &metrics_.gauge(
      "elpc_lease_expirations_total", "Pins force-released by lease expiry",
      {}, /*expose_as_counter=*/true);
  g->slowlog_spans = &metrics_.gauge(
      "elpc_slowlog_spans_total", "Spans ever added to the slowlog ring", {},
      /*expose_as_counter=*/true);
  g->connections_unix = &metrics_.gauge(
      "elpc_connections", "Live client connections", {{"transport", "unix"}});
  g->connections_tcp = &metrics_.gauge(
      "elpc_connections", "Live client connections", {{"transport", "tcp"}});
  g->connections_total_unix = &metrics_.gauge(
      "elpc_connections_accepted_total", "Connections ever accepted",
      {{"transport", "unix"}}, /*expose_as_counter=*/true);
  g->connections_total_tcp = &metrics_.gauge(
      "elpc_connections_accepted_total", "Connections ever accepted",
      {{"transport", "tcp"}}, /*expose_as_counter=*/true);
  // A separate family from elpc_connections{transport=...}: mixing a
  // proto label into the transport family would fork its label set.
  g->connections_v1 = &metrics_.gauge(
      "elpc_connections_proto",
      "Live client connections by negotiated protocol version",
      {{"proto", "v1"}});
  g->connections_v2 = &metrics_.gauge(
      "elpc_connections_proto",
      "Live client connections by negotiated protocol version",
      {{"proto", "v2"}});
  g->threads_os = &metrics_.gauge(
      "elpc_os_threads", "OS threads of the daemon process (fixed-pool "
      "invariant: independent of connection count)");
  metrics_.on_collect([this, g]() {
    const JobManagerStats jobs = manager_->stats();
    const service::EngineStats engine = engine_->stats();
    g->queued->set(static_cast<double>(jobs.queued));
    g->running->set(static_cast<double>(jobs.running));
    g->paused->set(jobs.paused ? 1.0 : 0.0);
    g->draining->set(jobs.draining ? 1.0 : 0.0);
    g->sessions->set(static_cast<double>(engine.sessions));
    g->subscriptions->set(static_cast<double>(engine.subscriptions));
    g->cached_revisions->set(static_cast<double>(engine.cached_revisions));
    g->cached_bytes->set(static_cast<double>(engine.cached_bytes));
    g->pinned_revisions->set(static_cast<double>(engine.pinned_revisions));
    g->pinned_bytes->set(static_cast<double>(engine.pinned_bytes));
    g->checkpoints->set(static_cast<double>(engine.checkpoints));
    g->checkpoint_bytes->set(static_cast<double>(engine.checkpoint_bytes));
    g->uptime_ms->set(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started_)
                          .count());
    g->arenas_created->set(static_cast<double>(engine.arenas_created));
    g->cache_evictions->set(static_cast<double>(engine.cache_evictions));
    g->checkpoint_evictions->set(
        static_cast<double>(engine.checkpoint_evictions));
    g->lease_expirations->set(static_cast<double>(engine.lease_expirations));
    g->slowlog_spans->set(static_cast<double>(slowlog_.total_added()));
    if (mux_) {
      g->connections_unix->set(
          static_cast<double>(mux_->connection_count("unix")));
      g->connections_tcp->set(
          static_cast<double>(mux_->connection_count("tcp")));
      g->connections_total_unix->set(
          static_cast<double>(mux_->connections_total("unix")));
      g->connections_total_tcp->set(
          static_cast<double>(mux_->connections_total("tcp")));
      const std::size_t live = mux_->connection_count();
      const std::size_t v2 = live_v2_.load(std::memory_order_relaxed);
      g->connections_v1->set(static_cast<double>(live >= v2 ? live - v2 : 0));
      g->connections_v2->set(static_cast<double>(v2));
    }
    g->threads_os->set(static_cast<double>(os_thread_count()));
  });
}

SocketServer::~SocketServer() {
  stop();
  mux_->stop();      // joins the IO workers before anything they use dies
  manager_->stop();  // releases any still-pending wait callbacks
}

void SocketServer::serve() {
  mux_->start();
  {
    std::unique_lock<std::mutex> lock(serve_mutex_);
    serve_cv_.wait(lock, [this]() {
      return shutdown_requested_.load(std::memory_order_acquire);
    });
  }
  listener_.close();
  if (tcp_listener_) {
    tcp_listener_->close();
  }
  // Stop the manager FIRST: pending `wait` callbacks fire with
  // shutting_down set and their responses enter the write queues, which
  // the mux flushes best-effort while tearing down.
  manager_->stop();
  mux_->stop();
}

void SocketServer::stop() {
  shutdown_requested_.store(true, std::memory_order_release);
  serve_cv_.notify_all();
  listener_.close();
  if (tcp_listener_) {
    tcp_listener_->close();
  }
}

void SocketServer::handle_frame(const std::shared_ptr<MuxConnection>& conn,
                                const std::string& line) {
  util::Json request;
  try {
    request = util::Json::parse(line);
  } catch (const util::JsonError& e) {
    conn->send_line(
        error_response(std::string("malformed request: ") + e.what())
            .dump());
    return;
  }
  auto state = std::static_pointer_cast<ConnState>(conn->user_state);
  if (!state) {
    state = std::make_shared<ConnState>();
    conn->user_state = state;
  }
  std::string verb;
  if (const util::Json* v = request.find("verb")) {
    if (v->is_string()) {
      verb = v->as_string();
    }
  }
  if (verb == "auth") {
    handle_auth(conn, *state, request);
    return;
  }
  if (verb == "hello") {
    // Like `stats`, negotiation is served unauthenticated: a client
    // must be able to learn what the endpoint speaks before deciding
    // how (or whether) to authenticate.
    handle_hello(conn, *state, request);
    return;
  }
  if (!options_.auth_token.empty() && !state->authenticated &&
      verb != "stats") {
    util::Json response = error_response(
        "authentication required: send {\"verb\": \"auth\", \"token\": ...} "
        "first (only `stats` is served unauthenticated)",
        codes::kUnauthenticated);
    echo_trace(trace_field(request), response);
    conn->send_line(response.dump());
    return;
  }
  const int version = state->version.load(std::memory_order_relaxed);
  try {
    if (verb == "submit") {
      handle_submit_framed(conn, state, request, line.size());
      return;
    }
    if (verb == "wait") {
      handle_wait_framed(conn, request, version);
      return;
    }
    if (verb == "drain") {
      handle_drain_framed(conn, request);
      return;
    }
    if (version >= 2 && verb == "poll") {
      handle_poll_v2(conn, request);
      return;
    }
    if (version >= 2 && verb == "apply_link_updates") {
      handle_link_updates_v2(conn, request);
      return;
    }
  } catch (const std::exception& e) {
    // The framed handlers run outside handle()'s catch-all; a client
    // must no more crash an IO worker than it could the old per-
    // connection thread.
    util::Json response = error_response(e.what());
    echo_trace(trace_field(request), response);
    conn->send_line(response.dump());
    return;
  }
  util::Json response = handle(request);
  {
    const util::ProfileScope write_phase("socket_write", "daemon");
    conn->send_line(response.dump());
  }
  if (verb == "shutdown") {
    // The response is queued; the serve() teardown flushes it
    // best-effort on the way down, like the old close-after-answer.
    stop();
  }
}

void SocketServer::handle_auth(const std::shared_ptr<MuxConnection>& conn,
                               ConnState& state, const util::Json& request) {
  std::string token;
  if (const util::Json* t = request.find("token")) {
    if (t->is_string()) {
      token = t->as_string();
    }
  }
  util::Json response;
  if (options_.auth_token.empty() ||
      util::constant_time_equals(token, options_.auth_token)) {
    // With auth off every connection is born authorized; accepting the
    // verb anyway lets one client config speak to both deployments.
    state.authenticated = true;
    response = ok_response();
    response.set("authenticated", true);
  } else {
    auth_failures_c_->add();
    response = error_response("invalid auth token", codes::kAuthFailed);
  }
  echo_trace(trace_field(request), response);
  conn->send_line(response.dump());
}

void SocketServer::handle_hello(const std::shared_ptr<MuxConnection>& conn,
                                ConnState& state, const util::Json& request) {
  int negotiated = 0;
  util::Json response;
  try {
    response = hello_response(request, negotiated);
  } catch (const std::exception& e) {
    response = error_response(e.what());
  }
  if (negotiated != 0) {
    const int previous =
        state.version.exchange(negotiated, std::memory_order_relaxed);
    // The per-proto gauge tracks the connection's CURRENT version, so a
    // renegotiation moves it between buckets instead of double-counting.
    if (previous < 2 && negotiated >= 2) {
      live_v2_.fetch_add(1, std::memory_order_relaxed);
    } else if (previous >= 2 && negotiated < 2) {
      live_v2_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  echo_trace(trace_field(request), response);
  conn->send_line(response.dump());
}

void SocketServer::handle_submit_framed(
    const std::shared_ptr<MuxConnection>& conn,
    const std::shared_ptr<ConnState>& state, const util::Json& request,
    std::size_t frame_bytes) {
  // Quota gate: what THIS connection already has in flight, checked
  // before the job touches the queue.  The counters come back down via
  // a completion callback, so a client that submits and walks away
  // cannot ratchet its budget shut forever.
  if (options_.max_inflight_jobs > 0 &&
      state->inflight_jobs.load(std::memory_order_relaxed) >=
          options_.max_inflight_jobs) {
    quota_rejections_c_->add();
    util::Json response = error_response(
        "per-connection in-flight job quota exceeded (" +
            std::to_string(options_.max_inflight_jobs) + " jobs)",
        codes::kQuotaJobs);
    echo_trace(trace_field(request), response);
    conn->send_line(response.dump());
    return;
  }
  if (options_.max_inflight_bytes > 0 &&
      state->inflight_bytes.load(std::memory_order_relaxed) + frame_bytes >
          options_.max_inflight_bytes) {
    quota_rejections_c_->add();
    util::Json response = error_response(
        "per-connection in-flight byte quota exceeded (" +
            std::to_string(options_.max_inflight_bytes) + " bytes)",
        codes::kQuotaBytes);
    echo_trace(trace_field(request), response);
    conn->send_line(response.dump());
    return;
  }
  util::Json response = handle(request);
  if (response.at("ok").as_bool()) {
    const Ticket ticket =
        static_cast<Ticket>(response.at("ticket").as_int());
    state->inflight_jobs.fetch_add(1, std::memory_order_relaxed);
    state->inflight_bytes.fetch_add(frame_bytes, std::memory_order_relaxed);
    // The release hook: fires exactly once at the terminal transition
    // (or manager stop), wherever the submitting connection is by then.
    try {
      manager_->wait_async(
          ticket, [state, frame_bytes](const JobStatus&) {
            state->inflight_jobs.fetch_sub(1, std::memory_order_relaxed);
            state->inflight_bytes.fetch_sub(frame_bytes,
                                            std::memory_order_relaxed);
          });
    } catch (const std::exception&) {
      // Ticket already evicted (terminal and swept): in-flight is over.
      state->inflight_jobs.fetch_sub(1, std::memory_order_relaxed);
      state->inflight_bytes.fetch_sub(frame_bytes,
                                      std::memory_order_relaxed);
    }
  }
  const util::ProfileScope write_phase("socket_write", "daemon");
  conn->send_line(response.dump());
}

void SocketServer::handle_wait_framed(
    const std::shared_ptr<MuxConnection>& conn, const util::Json& request,
    int version) {
  const std::string trace_id = trace_field(request);
  try {
    const Ticket ticket = ticket_field(request);
    // Completion-driven wait: no thread parks.  The callback may fire
    // inline (already terminal), from the engine worker that finished
    // the job, or from stop();
    // the connection may be long gone by then, hence the weak_ptr.
    // `version` rides along by value: the response speaks the protocol
    // the connection had when it asked.
    std::weak_ptr<MuxConnection> weak = conn;
    manager_->wait_async(
        ticket, [weak, trace_id, version](const JobStatus& status) {
          const std::shared_ptr<MuxConnection> target = weak.lock();
          if (!target) {
            return;  // submitter hung up; the result stays pollable
          }
          if (version >= 2 && status.terminal()) {
            util::Json control = status_control_v2(status);
            echo_trace(trace_id, control);
            std::string payload;
            {
              const util::ProfileScope serialize_phase("serialize", "daemon");
              payload = wire::encode_result_table(
                  std::span<const service::SolveResult>(&status.result, 1));
            }
            target->send_line_with_frame(control.dump(),
                                         wire::FrameType::kResultTable,
                                         std::move(payload));
            return;
          }
          util::Json response = status_response(status);
          echo_trace(trace_id, response);
          target->send_line(response.dump());
        });
  } catch (const std::exception& e) {
    util::Json response = error_response(e.what());
    echo_trace(trace_id, response);
    conn->send_line(response.dump());
  }
}

void SocketServer::handle_poll_v2(const std::shared_ptr<MuxConnection>& conn,
                                  const util::Json& request) {
  const std::string trace_id = trace_field(request);
  const util::ScopedTraceContext trace_scope(trace_id);
  try {
    const JobStatus status = manager_->poll(ticket_field(request));
    if (!status.terminal()) {
      // Nothing bulky to ship — the status stays a plain JSON line even
      // on v2 (control frames are JSON on every version).
      util::Json response = status_response(status);
      echo_trace(trace_id, response);
      conn->send_line(response.dump());
      return;
    }
    util::Json control = status_control_v2(status);
    echo_trace(trace_id, control);
    std::string payload;
    {
      const util::ProfileScope serialize_phase("serialize", "daemon");
      payload = wire::encode_result_table(
          std::span<const service::SolveResult>(&status.result, 1));
    }
    const util::ProfileScope write_phase("socket_write", "daemon");
    conn->send_line_with_frame(control.dump(), wire::FrameType::kResultTable,
                               std::move(payload));
  } catch (const std::exception& e) {
    util::Json response = error_response(e.what());
    echo_trace(trace_id, response);
    conn->send_line(response.dump());
  }
}

void SocketServer::handle_link_updates_v2(
    const std::shared_ptr<MuxConnection>& conn, const util::Json& request) {
  const std::string trace_id = trace_field(request);
  const util::ScopedTraceContext trace_scope(trace_id);
  try {
    const std::vector<graph::LinkUpdate> updates =
        service::link_updates_from_json(request.at("updates"));
    const std::vector<service::SolveResult> resolved =
        engine_->apply_link_updates(request.at("network").as_string(),
                                    updates);
    util::Json control = ok_response();
    control.set("payload", "results");
    echo_trace(trace_id, control);
    std::string payload;
    {
      const util::ProfileScope serialize_phase("serialize", "daemon",
                                               resolved.size());
      payload = wire::encode_result_table(resolved);
    }
    const util::ProfileScope write_phase("socket_write", "daemon");
    conn->send_line_with_frame(control.dump(), wire::FrameType::kResultTable,
                               std::move(payload));
  } catch (const std::exception& e) {
    util::Json response = error_response(e.what());
    echo_trace(trace_id, response);
    conn->send_line(response.dump());
  }
}

void SocketServer::handle_binary_frame(
    const std::shared_ptr<MuxConnection>& conn,
    const wire::FrameHeader& header, std::string_view payload) {
  // A well-formed frame arrived, so the stream is still in sync — these
  // failures answer one error line and keep the connection, unlike the
  // mux-level framing violations (bad magic, over-cap) that must close.
  const auto state = std::static_pointer_cast<ConnState>(conn->user_state);
  if (!state || state->version.load(std::memory_order_relaxed) < 2) {
    conn->send_line(
        error_response("binary frame before a v2 hello", codes::kProtocol)
            .dump());
    return;
  }
  if (!options_.auth_token.empty() && !state->authenticated) {
    conn->send_line(
        error_response(
            "authentication required: send {\"verb\": \"auth\", \"token\": "
            "...} first (only `stats` is served unauthenticated)",
            codes::kUnauthenticated)
            .dump());
    return;
  }
  if (header.type != wire::FrameType::kLinkUpdateTable) {
    conn->send_line(error_response(
                        "unexpected binary frame type " +
                            std::to_string(static_cast<int>(header.type)),
                        codes::kProtocol)
                        .dump());
    return;
  }
  try {
    const wire::LinkUpdateTable table =
        wire::decode_link_update_table(payload);
    const std::vector<service::SolveResult> resolved =
        engine_->apply_link_updates(table.network, table.updates);
    util::Json control = ok_response();
    control.set("payload", "results");
    std::string out;
    {
      const util::ProfileScope serialize_phase("serialize", "daemon",
                                               resolved.size());
      out = wire::encode_result_table(resolved);
    }
    const util::ProfileScope write_phase("socket_write", "daemon");
    conn->send_line_with_frame(control.dump(), wire::FrameType::kResultTable,
                               std::move(out));
  } catch (const wire::WireFormatError& e) {
    conn->send_line(error_response(e.what(), codes::kProtocol).dump());
  } catch (const std::exception& e) {
    conn->send_line(error_response(e.what()).dump());
  }
}

void SocketServer::handle_drain_framed(
    const std::shared_ptr<MuxConnection>& conn, const util::Json& request) {
  const std::string trace_id = trace_field(request);
  std::int64_t timeout_ms = 10000;
  if (const util::Json* t = request.find("timeout_ms")) {
    timeout_ms = t->as_int();
  }
  const JobManager::DrainBaseline baseline =
      manager_->begin_drain(timeout_ms);
  // Two racing triggers — the manager going idle, or the budget (plus
  // the same 2s unwind grace the blocking drain used) lapsing — and the
  // first one answers.  `answered` makes that exactly-once.
  auto answered = std::make_shared<std::atomic<bool>>(false);
  std::weak_ptr<MuxConnection> weak = conn;
  auto respond = [this, weak, trace_id, baseline, answered]() {
    if (answered->exchange(true)) {
      return;
    }
    const DrainReport report = manager_->drain_progress(baseline);
    // stats() sweeps every session cache — the final flush that also
    // force-releases expired leases — so the pin counts below reflect
    // the post-drain steady state, not stale bookkeeping.
    const service::EngineStats engine = engine_->stats();
    const std::shared_ptr<MuxConnection> target = weak.lock();
    if (!target) {
      return;
    }
    util::Json response = ok_response();
    response.set("drained", report.drained);
    response.set("completed", report.completed);
    response.set("timed_out", report.timed_out);
    response.set("queued", report.queued);
    response.set("running", report.running);
    response.set("pinned_revisions", engine.pinned_revisions);
    response.set("pinned_bytes", engine.pinned_bytes);
    response.set("lease_expirations", engine.lease_expirations);
    echo_trace(trace_id, response);
    target->send_line(response.dump());
  };
  if (timeout_ms > 0) {
    mux_->schedule_after(timeout_ms + 2000, respond);
  }
  // NB: notify_when_idle may fire inline under the manager mutex;
  // respond() then calls drain_progress, which re-locks it — so defer
  // through the mux timer wheel (delay 0) instead of invoking directly.
  manager_->notify_when_idle(
      [this, respond]() { mux_->schedule_after(0, respond); });
}

util::Json SocketServer::handle(const util::Json& request) {
  // The request's trace id scopes the whole exchange: log lines and
  // profiler events emitted while dispatching the verb carry it, and
  // the response echoes it so the client can match frames to ids.  A
  // request without one runs (and responds) without.
  const std::string request_trace = trace_field(request);
  const util::ScopedTraceContext trace_scope(request_trace);
  util::Json response = handle_verb(request);
  if (!request_trace.empty() && !response.contains("trace_id")) {
    response.set("trace_id", request_trace);
  }
  return response;
}

util::Json SocketServer::handle_verb(const util::Json& request) {
  try {
    const std::string verb = request.at("verb").as_string();
    if (verb == "auth") {
      // The connection-scoped auth state lives in the framing layer
      // (handle_frame); through the direct path the verb is a no-op
      // acknowledgement so both entry points accept the same script.
      util::Json response = ok_response();
      response.set("authenticated", true);
      return response;
    }
    if (verb == "hello") {
      // Same negotiation math as the framed path, minus the connection
      // state flip (the direct path has no connection) — both entry
      // points accept the same script and answer the same frame.
      int negotiated = 0;
      return hello_response(request, negotiated);
    }
    if (verb == "register_network") {
      (void)engine_->register_network(
          request.at("id").as_string(),
          graph::network_from_json(request.at("network")));
      return ok_response();
    }
    if (verb == "submit") {
      service::SolveJob job = service::job_from_json(request.at("job"));
      // The job inherits the request's trace id unless the client
      // stamped the job itself (the job-level id wins: it is what the
      // span, the solve's log lines, and poll/wait echoes will carry).
      if (job.trace_id.empty()) {
        job.trace_id = util::trace_context();
      }
      int priority = 0;
      if (const util::Json* p = request.find("priority")) {
        priority = static_cast<int>(p->as_int());
      }
      const Ticket ticket = manager_->submit(job, priority);
      util::Json response = ok_response();
      response.set("ticket", ticket);
      return response;
    }
    if (verb == "poll") {
      return status_response(manager_->poll(ticket_field(request)));
    }
    if (verb == "wait") {
      return status_response(manager_->wait(ticket_field(request)));
    }
    if (verb == "cancel") {
      const bool cancelled = manager_->cancel(ticket_field(request));
      util::Json response = ok_response();
      response.set("cancelled", cancelled);
      return response;
    }
    if (verb == "apply_link_updates") {
      const std::vector<graph::LinkUpdate> updates =
          service::link_updates_from_json(request.at("updates"));
      const std::vector<service::SolveResult> resolved =
          engine_->apply_link_updates(request.at("network").as_string(),
                                      updates);
      util::Json response = ok_response();
      util::JsonArray results;
      {
        const util::ProfileScope serialize_phase("serialize", "daemon",
                                                 resolved.size());
        for (const service::SolveResult& r : resolved) {
          results.push_back(service::result_entry_to_json(r));
        }
      }
      response.set("results", util::Json(std::move(results)));
      return response;
    }
    if (verb == "pause") {
      manager_->pause();
      return ok_response();
    }
    if (verb == "resume") {
      manager_->resume();
      return ok_response();
    }
    if (verb == "stats") {
      const JobManagerStats jobs = manager_->stats();
      const service::EngineStats engine = engine_->stats();
      util::Json response = ok_response();
      response.set("queued", jobs.queued);
      response.set("running", jobs.running);
      response.set("done", jobs.done);
      response.set("failed", jobs.failed);
      response.set("cancelled", jobs.cancelled);
      response.set("timed_out", jobs.timed_out);
      response.set("submitted", jobs.submitted);
      response.set("paused", jobs.paused);
      response.set("draining", jobs.draining);
      response.set("sessions", engine.sessions);
      response.set("subscriptions", engine.subscriptions);
      response.set("arenas_created", engine.arenas_created);
      response.set("cached_revisions", engine.cached_revisions);
      response.set("cached_bytes", engine.cached_bytes);
      response.set("cache_evictions", engine.cache_evictions);
      // Incremental re-solve health: reuse hit rate and how much DP
      // work the checkpoints actually saved, plus their cache charge.
      response.set("incremental_hits", engine.incremental_hits);
      response.set("incremental_misses", engine.incremental_misses);
      response.set("incremental_columns_reused",
                   engine.incremental_columns_reused);
      response.set("checkpoints", engine.checkpoints);
      response.set("checkpoint_bytes", engine.checkpoint_bytes);
      response.set("checkpoint_evictions", engine.checkpoint_evictions);
      // Leak diagnostic: superseded revisions still pinned by outside
      // references.  Steady state == subscriptions; monotonic growth
      // means a solve hung and pins its revision forever.
      response.set("pinned_revisions", engine.pinned_revisions);
      response.set("pinned_bytes", engine.pinned_bytes);
      // Lease health: pins force-released because a solve outlived its
      // budget (always 0 with leases off).
      response.set("lease_expirations", engine.lease_expirations);
      // Which frame-rate kernel serves this engine's jobs, plus how many
      // each kernel has served (operators check this after forcing a
      // kernel via ELPC_FORCE_KERNEL or serve --kernel).
      response.set("kernel", engine.kernel);
      util::Json kernel_jobs = util::JsonObject{};
      for (const auto& [name, served] : engine.kernel_jobs) {
        kernel_jobs.set(name, served);
      }
      response.set("kernel_jobs", std::move(kernel_jobs));
      // Front-end health: who is connected over what, whether auth
      // gates them, and the fixed-pool thread invariant (threads_os
      // must not scale with connections — the 1000-idle-client smoke
      // asserts exactly this field).
      const std::size_t live = mux_ ? mux_->connection_count() : 0;
      const std::size_t live_v2 = live_v2_.load(std::memory_order_relaxed);
      response.set("connections", live);
      response.set("connections_unix",
                   mux_ ? mux_->connection_count("unix") : 0);
      response.set("connections_tcp",
                   mux_ ? mux_->connection_count("tcp") : 0);
      // Per-protocol split of the same live count: v2 = connections
      // that negotiated via `hello`, v1 = everyone else (including
      // clients predating negotiation entirely).
      response.set("connections_v1", live >= live_v2 ? live - live_v2 : 0);
      response.set("connections_v2", live_v2);
      response.set("protocol_min", wire::kProtocolVersionMin);
      response.set("protocol_max", wire::kProtocolVersionMax);
      response.set("connections_accepted",
                   mux_ ? mux_->connections_total("unix") +
                              mux_->connections_total("tcp")
                        : 0);
      response.set("auth_required", !options_.auth_token.empty());
      response.set("auth_failures", auth_failures_c_->value());
      response.set("quota_rejections", quota_rejections_c_->value());
      response.set("io_workers", options_.io_workers);
      response.set("threads_os", os_thread_count());
      response.set("tcp_port", tcp_port());
      // Daemon provenance + clock anchors: uptime for `client top`'s
      // rate math, the wall-clock start for log correlation, and what
      // this binary was built from.
      response.set("uptime_ms",
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started_)
                       .count());
      response.set("started_unix_ms", started_unix_ms_);
      response.set("slow_ms", options_.slow_ms);
      response.set("build", build_info_json());
      // The same snapshot the `metrics` verb exposes, in compact JSON
      // (per-family percentiles, no bucket arrays) — one round trip for
      // `client top` and the chaos driver's invariants.
      response.set("metrics", metrics_.json_snapshot());
      return response;
    }
    if (verb == "metrics") {
      // Prometheus text exposition, shipped as one JSON string field so
      // the line-delimited framing stays intact.
      util::Json response = ok_response();
      response.set("text", metrics_.prometheus_text());
      return response;
    }
    if (verb == "slowlog") {
      // Server-side filters: entries leave the ring already narrowed, so
      // a client chasing one state/kernel over a fat slowlog doesn't
      // ship (or parse) the rest.  `total` stays the unfiltered
      // cumulative count — it is the conservation anchor.
      std::string state_filter;
      std::string kernel_filter;
      double min_ms = 0.0;
      if (const util::Json* s = request.find("state")) {
        state_filter = s->as_string();
      }
      if (const util::Json* k = request.find("kernel")) {
        kernel_filter = k->as_string();
      }
      if (const util::Json* m = request.find("min_ms")) {
        min_ms = m->as_number();
      }
      util::Json response = ok_response();
      response.set("slow_ms", options_.slow_ms);
      response.set("total", slowlog_.total_added());
      util::JsonArray entries;
      for (const TraceSpan& span : slowlog_.entries()) {
        if (!state_filter.empty() && span.state != state_filter) {
          continue;
        }
        if (!kernel_filter.empty() && span.kernel != kernel_filter) {
          continue;
        }
        if (span.e2e_ms < min_ms) {
          continue;
        }
        entries.push_back(span_to_json(span));
      }
      response.set("entries", util::Json(std::move(entries)));
      return response;
    }
    if (verb == "trace") {
      // Draining consumes the rings: each event is exported exactly
      // once, so periodic `trace` pulls tile the timeline instead of
      // repeating it.  Spans are not consumed (the ring keeps its
      // retention window); spans_total counts every terminal job ever.
      const util::ProfilerSnapshot snapshot = util::Profiler::drain();
      const std::vector<TraceSpan> spans = tracelog_.entries();
      util::Json response = ok_response();
      response.set("profiling", util::Profiler::enabled());
      response.set("events", snapshot.events.size());
      response.set("recorded", snapshot.recorded);
      response.set("dropped", snapshot.dropped);
      response.set("drained", snapshot.drained);
      response.set("threads", snapshot.threads);
      response.set("spans", spans.size());
      response.set("spans_total", tracelog_.total_added());
      response.set("trace", chrome_trace_json(snapshot, spans));
      return response;
    }
    if (verb == "drain") {
      std::int64_t timeout_ms = 10000;
      if (const util::Json* t = request.find("timeout_ms")) {
        timeout_ms = t->as_int();
      }
      // The blocking form — the direct handle() path for tests and
      // legacy callers; the mux route (handle_drain_framed) answers the
      // same payload completion-driven.
      const DrainReport report = manager_->drain(timeout_ms);
      const service::EngineStats engine = engine_->stats();
      util::Json response = ok_response();
      response.set("drained", report.drained);
      response.set("completed", report.completed);
      response.set("timed_out", report.timed_out);
      response.set("queued", report.queued);
      response.set("running", report.running);
      response.set("pinned_revisions", engine.pinned_revisions);
      response.set("pinned_bytes", engine.pinned_bytes);
      response.set("lease_expirations", engine.lease_expirations);
      return response;
    }
    if (verb == "shutdown") {
      shutdown_requested_.store(true, std::memory_order_release);
      serve_cv_.notify_all();
      // New connections must find a closed door while teardown runs.
      listener_.close();
      if (tcp_listener_) {
        tcp_listener_->close();
      }
      return ok_response();
    }
    return error_response("unknown verb '" + verb + "'");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

}  // namespace elpc::daemon
