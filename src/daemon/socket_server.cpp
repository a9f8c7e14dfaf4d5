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

/// The refusal an unauthenticated connection gets for a gated verb or a
/// binary frame.
constexpr const char* kAuthRequired =
    "authentication required: send {\"verb\": \"auth\", \"token\": ...} "
    "first (only `stats` is served unauthenticated)";

/// Solve results an answer ships beside its control fields, under `key`:
/// "result" (the one entry of a terminal poll/wait) or "results" (the
/// re-solved subscriptions of apply_link_updates).  Null key: none.
struct Results {
  const char* key = nullptr;
  std::span<const service::SolveResult> rows;
};

/// {"ok", "ticket", "state", "priority", "trace_id"?, "shutting_down"?}
/// — the poll/wait control fields; status_results() holds the entry.
util::Json status_control(const JobStatus& status) {
  util::Json response = ok_response();
  response.set("ticket", status.ticket);
  response.set("state", job_state_name(status.state));
  response.set("priority", status.priority);
  if (!status.trace_id.empty()) {
    response.set("trace_id", status.trace_id);
  }
  if (status.shutting_down) {
    // `wait` released without a terminal state because the daemon is
    // going down — the state will never advance, so don't re-wait.
    response.set("shutting_down", true);
  }
  return response;
}

/// The result entry appears once the job is terminal.
Results status_results(const JobStatus& status) {
  if (!status.terminal()) {
    return {};
  }
  return {"result", {&status.result, 1}};
}

/// Completes an answer for protocol `version` and returns the binary
/// frame that must follow its control line, if any.  v1 inlines the
/// results as JSON under their key; v2 names the key in "payload" and
/// ships the rows as one result-table frame, which a v2 client
/// reinflates into exactly the v1 JSON.  The request's trace id is
/// echoed unless the answer already carries one.
std::optional<std::string> finish_answer(util::Json& control,
                                         const Results& results, int version,
                                         const std::string& trace_id) {
  std::optional<std::string> frame;
  if (results.key != nullptr) {
    const util::ProfileScope serialize_phase("serialize", "daemon",
                                             results.rows.size());
    if (version >= 2) {
      control.set("payload", results.key);
      frame = wire::encode_result_table(results.rows);
    } else if (std::string_view(results.key) == "result") {
      control.set("result",
                  service::result_entry_to_json(results.rows.front()));
    } else {
      util::JsonArray entries;
      for (const service::SolveResult& r : results.rows) {
        entries.push_back(service::result_entry_to_json(r));
      }
      control.set(results.key, util::Json(std::move(entries)));
    }
  }
  if (!trace_id.empty() && !control.contains("trace_id")) {
    control.set("trace_id", trace_id);
  }
  return frame;
}

/// The one write path for answers on a connection, synchronous or from a
/// completion callback.
void send_answer(MuxConnection& conn, int version, const std::string& trace_id,
                 util::Json control, const Results& results = {}) {
  std::optional<std::string> frame =
      finish_answer(control, results, version, trace_id);
  const util::ProfileScope write_phase("socket_write", "daemon");
  if (frame.has_value()) {
    conn.send_line_with_frame(control.dump(), wire::FrameType::kResultTable,
                              std::move(*frame));
  } else {
    conn.send_line(control.dump());
  }
}

/// Protocol-version negotiation: intersect the client's advertised range
/// with ours.  `negotiated` is 0 when the ranges do not overlap (the
/// response then carries code "version_mismatch" and the connection stays
/// at v1).
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

/// A string field of the request ("" when absent or not a string).
std::string_view string_field(const util::Json& request, const char* key) {
  const util::Json* field = request.find(key);
  return field != nullptr && field->is_string()
             ? std::string_view(field->as_string())
             : std::string_view();
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

/// One request on its way through the verb table.  A framed request
/// carries its connection and answers on it at the version negotiated
/// when it arrived; a handle() request has none and collects its v1
/// answer in `out`.
struct SocketServer::Exchange {
  const util::Json& request;
  std::string_view verb{};
  std::string trace_id{};
  std::shared_ptr<MuxConnection> conn{};
  std::shared_ptr<ConnState> state{};
  int version = 1;
  std::size_t frame_bytes = 0;
  /// apply_link_updates' bulk form: a binary frame instead of JSON fields.
  const wire::FrameHeader* frame = nullptr;
  std::string_view payload{};
  util::Json* out = nullptr;

  void reply(util::Json control, const Results& results = {}) {
    if (conn) {
      send_answer(*conn, version, trace_id, std::move(control), results);
      return;
    }
    (void)finish_answer(control, results, 1, trace_id);
    *out = std::move(control);
  }

  /// The connection's state, for the verbs that act on a connection;
  /// handle()'s connection-less exchanges answer ok=false instead.
  ConnState& connection() const {
    if (!state) {
      throw std::invalid_argument("verb '" + std::string(verb) +
                                  "' needs a connection");
    }
    return *state;
  }
};

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
  const int version = state->version.load(std::memory_order_relaxed);
  Exchange ex{.request = request,
              .verb = string_field(request, "verb"),
              .trace_id = std::string(string_field(request, "trace_id")),
              .conn = conn,
              .state = std::move(state),
              .version = version,
              .frame_bytes = line.size()};
  dispatch(ex);
}

void SocketServer::handle_binary_frame(
    const std::shared_ptr<MuxConnection>& conn,
    const wire::FrameHeader& header, std::string_view payload) {
  // A well-formed frame arrived, so the stream is still in sync — these
  // failures answer one error line and keep the connection, unlike the
  // mux-level framing violations (bad magic, over-cap) that must close.
  auto state = std::static_pointer_cast<ConnState>(conn->user_state);
  const int version =
      state ? state->version.load(std::memory_order_relaxed) : 1;
  if (version < 2) {
    conn->send_line(
        error_response("binary frame before a v2 hello", codes::kProtocol)
            .dump());
    return;
  }
  static const util::Json kNoFields = util::JsonObject{};
  Exchange ex{.request = kNoFields,
              .verb = "apply_link_updates",
              .conn = conn,
              .state = std::move(state),
              .version = version,
              .frame = &header,
              .payload = payload};
  dispatch(ex);
}

util::Json SocketServer::handle(const util::Json& request) {
  util::Json response;
  Exchange ex{.request = request,
              .verb = string_field(request, "verb"),
              .trace_id = std::string(string_field(request, "trace_id")),
              .out = &response};
  dispatch(ex);
  return response;
}

void SocketServer::dispatch(Exchange& ex) {
  // The verb table: one handler per verb.  `open` verbs are served
  // before a connection authenticates: a client must be able to learn
  // what the endpoint speaks (hello, stats) before deciding how (or
  // whether) to authenticate.  tools/check_protocol_docs.sh reads the
  // names from these entries.
  struct Verb {
    std::string_view name;
    bool open;
    void (SocketServer::*handler)(Exchange&);
  };
  constexpr bool kOpen = true;
  constexpr bool kGated = false;
  static constexpr Verb kVerbs[] = {
      {"submit", kGated, &SocketServer::verb_submit},
      {"poll", kGated, &SocketServer::verb_poll},
      {"wait", kGated, &SocketServer::verb_wait},
      {"apply_link_updates", kGated, &SocketServer::verb_apply_link_updates},
      {"register_network", kGated, &SocketServer::verb_register_network},
      {"cancel", kGated, &SocketServer::verb_cancel},
      {"pause", kGated, &SocketServer::verb_pause},
      {"resume", kGated, &SocketServer::verb_resume},
      {"metrics", kGated, &SocketServer::verb_metrics},
      {"slowlog", kGated, &SocketServer::verb_slowlog},
      {"trace", kGated, &SocketServer::verb_trace},
      {"drain", kGated, &SocketServer::verb_drain},
      {"shutdown", kGated, &SocketServer::verb_shutdown},
      {"auth", kOpen, &SocketServer::verb_auth},
      {"hello", kOpen, &SocketServer::verb_hello},
      {"stats", kOpen, &SocketServer::verb_stats},
  };
  // The request's trace id scopes the whole exchange: log lines and
  // profiler events emitted while serving it carry it, and the answer
  // echoes it.  A request without one runs (and answers) without.
  const util::ScopedTraceContext trace_scope(ex.trace_id);
  try {
    const Verb* verb =
        std::find_if(std::begin(kVerbs), std::end(kVerbs),
                     [&ex](const Verb& v) { return v.name == ex.verb; });
    const bool known = verb != std::end(kVerbs);
    if (ex.state && !ex.state->authenticated &&
        !options_.auth_token.empty() && !(known && verb->open)) {
      ex.reply(error_response(kAuthRequired, codes::kUnauthenticated));
      return;
    }
    if (!known) {
      // at()/as_string() throw their own texts for `{}` and a
      // non-string verb.
      throw std::invalid_argument("unknown verb '" +
                                  ex.request.at("verb").as_string() + "'");
    }
    (this->*verb->handler)(ex);
  } catch (const std::exception& e) {
    // A client must never be able to crash an IO worker: every failure
    // answers ok=false on that frame.
    ex.reply(error_response(e.what()));
  }
}

void SocketServer::verb_auth(Exchange& ex) {
  ConnState& state = ex.connection();
  if (!options_.auth_token.empty() &&
      !util::constant_time_equals(string_field(ex.request, "token"),
                                  options_.auth_token)) {
    auth_failures_c_->add();
    ex.reply(error_response("invalid auth token", codes::kAuthFailed));
    return;
  }
  // With auth off every connection is born authorized; accepting the
  // verb anyway lets one client config speak to both deployments.
  state.authenticated = true;
  util::Json response = ok_response();
  response.set("authenticated", true);
  ex.reply(std::move(response));
}

void SocketServer::verb_hello(Exchange& ex) {
  ConnState& state = ex.connection();
  int negotiated = 0;
  util::Json response = hello_response(ex.request, negotiated);
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
  ex.reply(std::move(response));
}

void SocketServer::verb_submit(Exchange& ex) {
  // Quota gate: what THIS connection already has in flight, checked
  // before the job touches the queue.  The counters come back down via
  // a completion callback, so a client that submits and walks away
  // cannot ratchet its budget shut forever.
  const std::shared_ptr<ConnState>& state = ex.state;
  const std::size_t frame_bytes = ex.frame_bytes;
  if (state && options_.max_inflight_jobs > 0 &&
      state->inflight_jobs.load(std::memory_order_relaxed) >=
          options_.max_inflight_jobs) {
    quota_rejections_c_->add();
    ex.reply(error_response(
        "per-connection in-flight job quota exceeded (" +
            std::to_string(options_.max_inflight_jobs) + " jobs)",
        codes::kQuotaJobs));
    return;
  }
  if (state && options_.max_inflight_bytes > 0 &&
      state->inflight_bytes.load(std::memory_order_relaxed) + frame_bytes >
          options_.max_inflight_bytes) {
    quota_rejections_c_->add();
    ex.reply(error_response(
        "per-connection in-flight byte quota exceeded (" +
            std::to_string(options_.max_inflight_bytes) + " bytes)",
        codes::kQuotaBytes));
    return;
  }
  service::SolveJob job = service::job_from_json(ex.request.at("job"));
  // The job inherits the request's trace id unless the client stamped
  // the job itself (the job-level id wins: it is what the span, the
  // solve's log lines, and poll/wait echoes will carry).
  if (job.trace_id.empty()) {
    job.trace_id = util::trace_context();
  }
  int priority = 0;
  if (const util::Json* p = ex.request.find("priority")) {
    priority = static_cast<int>(p->as_int());
  }
  const Ticket ticket = manager_->submit(job, priority);
  if (state) {
    state->inflight_jobs.fetch_add(1, std::memory_order_relaxed);
    state->inflight_bytes.fetch_add(frame_bytes, std::memory_order_relaxed);
    // The release hook: fires exactly once at the terminal transition
    // (or manager stop), wherever the submitting connection is by then.
    auto release = [state, frame_bytes](const JobStatus&) {
      state->inflight_jobs.fetch_sub(1, std::memory_order_relaxed);
      state->inflight_bytes.fetch_sub(frame_bytes, std::memory_order_relaxed);
    };
    try {
      manager_->wait_async(ticket, release);
    } catch (const std::exception&) {
      // Ticket already evicted (terminal and swept): in-flight is over.
      release(JobStatus{});
    }
  }
  util::Json response = ok_response();
  response.set("ticket", ticket);
  ex.reply(std::move(response));
}

void SocketServer::verb_poll(Exchange& ex) {
  const JobStatus status = manager_->poll(ticket_field(ex.request));
  ex.reply(status_control(status), status_results(status));
}

void SocketServer::verb_wait(Exchange& ex) {
  (void)ex.connection();
  // Completion-driven: no thread parks.  The callback may fire inline
  // (already terminal), from the engine worker that finished the job, or
  // from stop(); the connection may be long gone by then, hence the
  // weak_ptr.  The answer speaks the version the connection had when it
  // asked, so a later renegotiation cannot change its encoding.
  std::weak_ptr<MuxConnection> weak = ex.conn;
  manager_->wait_async(
      ticket_field(ex.request),
      [weak, version = ex.version,
       trace_id = ex.trace_id](const JobStatus& status) {
        // A submitter that hung up leaves the result pollable.
        if (const std::shared_ptr<MuxConnection> target = weak.lock()) {
          send_answer(*target, version, trace_id, status_control(status),
                      status_results(status));
        }
      });
}

void SocketServer::verb_apply_link_updates(Exchange& ex) {
  std::vector<service::SolveResult> resolved;
  if (ex.frame == nullptr) {
    const std::vector<graph::LinkUpdate> updates =
        service::link_updates_from_json(ex.request.at("updates"));
    resolved = engine_->apply_link_updates(ex.request.at("network").as_string(),
                                           updates);
  } else {
    if (ex.frame->type != wire::FrameType::kLinkUpdateTable) {
      ex.reply(error_response(
          "unexpected binary frame type " +
              std::to_string(static_cast<int>(ex.frame->type)),
          codes::kProtocol));
      return;
    }
    wire::LinkUpdateTable table;
    try {
      table = wire::decode_link_update_table(ex.payload);
    } catch (const wire::WireFormatError& e) {
      ex.reply(error_response(e.what(), codes::kProtocol));
      return;
    }
    resolved = engine_->apply_link_updates(table.network, table.updates);
  }
  ex.reply(ok_response(), {"results", resolved});
}

void SocketServer::verb_register_network(Exchange& ex) {
  (void)engine_->register_network(
      ex.request.at("id").as_string(),
      graph::network_from_json(ex.request.at("network")));
  ex.reply(ok_response());
}

void SocketServer::verb_cancel(Exchange& ex) {
  const bool cancelled = manager_->cancel(ticket_field(ex.request));
  util::Json response = ok_response();
  response.set("cancelled", cancelled);
  ex.reply(std::move(response));
}

void SocketServer::verb_pause(Exchange& ex) {
  manager_->pause();
  ex.reply(ok_response());
}

void SocketServer::verb_resume(Exchange& ex) {
  manager_->resume();
  ex.reply(ok_response());
}

void SocketServer::verb_stats(Exchange& ex) {
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
  ex.reply(std::move(response));
}

void SocketServer::verb_metrics(Exchange& ex) {
  // Prometheus text exposition, shipped as one JSON string field so
  // the line-delimited framing stays intact.
  util::Json response = ok_response();
  response.set("text", metrics_.prometheus_text());
  ex.reply(std::move(response));
}

void SocketServer::verb_slowlog(Exchange& ex) {
  // Server-side filters: entries leave the ring already narrowed, so
  // a client chasing one state/kernel over a fat slowlog doesn't
  // ship (or parse) the rest.  `total` stays the unfiltered
  // cumulative count — it is the conservation anchor.
  std::string state_filter;
  std::string kernel_filter;
  double min_ms = 0.0;
  if (const util::Json* s = ex.request.find("state")) {
    state_filter = s->as_string();
  }
  if (const util::Json* k = ex.request.find("kernel")) {
    kernel_filter = k->as_string();
  }
  if (const util::Json* m = ex.request.find("min_ms")) {
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
  ex.reply(std::move(response));
}

void SocketServer::verb_trace(Exchange& ex) {
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
  ex.reply(std::move(response));
}

void SocketServer::verb_drain(Exchange& ex) {
  (void)ex.connection();
  std::int64_t timeout_ms = 10000;
  if (const util::Json* t = ex.request.find("timeout_ms")) {
    timeout_ms = t->as_int();
  }
  const JobManager::DrainBaseline baseline =
      manager_->begin_drain(timeout_ms);
  // Two racing triggers — the manager going idle, or the budget plus a
  // 2s unwind grace lapsing — and the first one answers.  `answered`
  // makes that exactly-once.
  auto answered = std::make_shared<std::atomic<bool>>(false);
  std::weak_ptr<MuxConnection> weak = ex.conn;
  auto respond = [this, weak, version = ex.version, trace_id = ex.trace_id,
                  baseline, answered]() {
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
    send_answer(*target, version, trace_id, std::move(response));
  };
  if (timeout_ms > 0) {
    // Saturating, like the budget itself: a timeout near INT64_MAX must
    // not wrap the grace into the past.
    constexpr std::int64_t kGraceMs = 2000;
    mux_->schedule_after(
        std::min(timeout_ms,
                 std::numeric_limits<std::int64_t>::max() - kGraceMs) +
            kGraceMs,
        respond);
  }
  // NB: notify_when_idle may fire inline under the manager mutex;
  // respond() then calls drain_progress, which re-locks it — so defer
  // through the mux timer wheel (delay 0) instead of invoking directly.
  manager_->notify_when_idle(
      [this, respond]() { mux_->schedule_after(0, respond); });
}

void SocketServer::verb_shutdown(Exchange& ex) {
  // Answer first: the serve() teardown flushes queued answers
  // best-effort on the way down.
  ex.reply(ok_response());
  stop();
}

}  // namespace elpc::daemon
