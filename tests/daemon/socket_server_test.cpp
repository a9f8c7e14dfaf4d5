#include "daemon/socket_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

namespace elpc::daemon {
namespace {

graph::Network make_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected_network(rng, 10, 50,
                                         graph::AttributeRanges{});
}

service::SolveJob make_job(const std::string& id, std::uint64_t pseed,
                           service::Objective objective) {
  util::Rng rng(pseed);
  service::SolveJob job;
  job.id = id;
  job.network = "net";
  job.pipeline = pipeline::random_pipeline(rng, 4, {});
  job.source = 0;
  job.destination = 9;
  job.objective = objective;
  job.cost = service::default_cost(objective);
  return job;
}

/// First out-edge of node 0 in the deterministic test network `seed` —
/// for building link deltas without re-deriving the topology.
graph::Edge first_edge(std::uint64_t seed) {
  graph::Network net = make_network(seed);
  return net.out_edges(0).front();
}

/// A unique socket path per test (paths must fit sun_path and not
/// collide across parallel test shards).
std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The acceptance-criteria flow, end to end over a real socket:
/// register → submit with mixed priorities → poll/wait to completion →
/// cancel a queued job → apply_link_updates re-solving a subscription →
/// stats → shutdown; results bit-identical to direct BatchEngine::solve.
TEST(SocketServer, EndToEndFlowMatchesDirectEngine) {
  SocketServerOptions options;
  options.threads = 1;          // one pull task: strict priority order
  options.start_paused = true;  // queue everything before dispatching
  SocketServer server(socket_path("e2e"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));

  std::vector<service::SolveJob> jobs;
  jobs.push_back(make_job("delay0", 50, service::Objective::kMinDelay));
  jobs.push_back(make_job("fps0", 51, service::Objective::kMaxFrameRate));
  jobs.push_back(make_job("delay1", 52, service::Objective::kMinDelay));
  jobs[1].resolve_on_update = true;  // the subscription

  const Ticket t0 = client.submit(jobs[0], /*priority=*/1);
  const Ticket t1 = client.submit(jobs[1], /*priority=*/3);
  const Ticket t2 = client.submit(jobs[2], /*priority=*/2);
  // A fourth job is cancelled while still queued: it must never run.
  const Ticket doomed = client.submit(
      make_job("doomed", 53, service::Objective::kMinDelay), /*priority=*/0);
  EXPECT_TRUE(client.cancel(doomed));
  EXPECT_EQ(client.poll(doomed).at("state").as_string(), "cancelled");

  // Everything still queued; poll reports that before dispatch opens.
  EXPECT_EQ(client.poll(t0).at("state").as_string(), "queued");
  client.resume();

  const util::Json done0 = client.wait(t0);
  const util::Json done1 = client.wait(t1);
  const util::Json done2 = client.wait(t2);
  EXPECT_EQ(done0.at("state").as_string(), "done");
  EXPECT_EQ(done1.at("state").as_string(), "done");
  EXPECT_EQ(done2.at("state").as_string(), "done");

  // Reference: the same jobs through a direct, in-process engine.
  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);
  const std::vector<const util::Json*> answers = {&done0, &done1, &done2};
  for (std::size_t i = 0; i < answers.size(); ++i) {
    // Canonical entry JSON is the bit-identity pin: same seconds, same
    // mapping, same revision, byte-for-byte.
    EXPECT_EQ(answers[i]->at("result").dump(),
              service::result_entry_to_json(expected[i]).dump())
        << jobs[i].id;
  }

  // Deltas re-solve the subscription ("fps0") against revision 1, both
  // via the daemon and directly; answers must again match bitwise.
  std::vector<graph::LinkUpdate> updates;
  {
    const service::NetworkSnapshot snap = direct.session("net").snapshot();
    for (graph::NodeId v = 0; v < snap->node_count(); ++v) {
      for (const graph::Edge& e : snap->out_edges(v)) {
        updates.push_back(graph::LinkUpdate{
            e.from, e.to,
            graph::LinkAttr{e.attr.bandwidth_mbps * 0.5,
                            e.attr.min_delay_s}});
      }
    }
  }
  const std::vector<util::Json> resolved =
      client.apply_link_updates("net", updates);
  const std::vector<service::SolveResult> resolved_direct =
      direct.apply_link_updates("net", updates);
  ASSERT_EQ(resolved.size(), 1u);
  ASSERT_EQ(resolved_direct.size(), 1u);
  EXPECT_EQ(resolved[0].at("job").as_string(), "fps0");
  EXPECT_EQ(resolved[0].at("revision").as_int(), 1);
  EXPECT_EQ(resolved[0].dump(),
            service::result_entry_to_json(resolved_direct[0]).dump());

  const util::Json stats = client.stats();
  EXPECT_EQ(stats.at("done").as_int(), 3);
  EXPECT_EQ(stats.at("cancelled").as_int(), 1);
  EXPECT_EQ(stats.at("queued").as_int(), 0);
  EXPECT_EQ(stats.at("sessions").as_int(), 1);
  EXPECT_EQ(stats.at("subscriptions").as_int(), 1);

  client.shutdown_server();
  serve_thread.join();
}

/// A terminal record keeps only what poll answers — the job itself is
/// dropped when it completes — so a finished ticket's poll answer must
/// be byte-identical however many jobs later it is asked, with the
/// ticket's priority and trace id intact and the result equal to a
/// direct solve's.
TEST(SocketServer, TerminalPollStaysByteIdentical) {
  SocketServerOptions options;
  options.threads = 2;
  SocketServer server(socket_path("poll_bytes"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  const service::SolveJob job =
      make_job("kept", 60, service::Objective::kMaxFrameRate);
  const Ticket ticket = client.submit(job, /*priority=*/4);
  const util::Json waited = client.wait(ticket);
  const util::Json first = client.poll(ticket);
  ASSERT_EQ(first.at("state").as_string(), "done");
  EXPECT_EQ(first.at("priority").as_int(), 4);
  ASSERT_NE(first.find("trace_id"), nullptr);
  EXPECT_EQ(first.at("trace_id").dump(), waited.at("trace_id").dump());
  EXPECT_EQ(first.at("result").dump(), waited.at("result").dump());

  for (int i = 0; i < 8; ++i) {
    (void)client.wait(client.submit(
        make_job("more" + std::to_string(i), 70 + i,
                 i % 2 == 0 ? service::Objective::kMinDelay
                            : service::Objective::kMaxFrameRate)));
  }
  EXPECT_EQ(client.poll(ticket).dump(), first.dump());

  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  EXPECT_EQ(first.at("result").dump(),
            service::result_entry_to_json(direct.solve({job}).front()).dump());

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, BadRequestsAnswerErrorsWithoutKillingTheDaemon) {
  SocketServer server(socket_path("err"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  // Unknown ticket: an error response, not a crash.
  util::Json poll_unknown = util::JsonObject{};
  poll_unknown.set("verb", "poll");
  poll_unknown.set("ticket", 12345);
  const util::Json response = client.request(poll_unknown);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("ticket"),
            std::string::npos);

  // Unknown verb and missing fields answer errors too.
  util::Json bad_verb = util::JsonObject{};
  bad_verb.set("verb", "frobnicate");
  EXPECT_FALSE(client.request(bad_verb).at("ok").as_bool());
  util::Json no_verb = util::JsonObject{};
  EXPECT_FALSE(client.request(no_verb).at("ok").as_bool());

  // Unknown session for updates: error, daemon lives.
  util::Json bad_update = util::JsonObject{};
  bad_update.set("verb", "apply_link_updates");
  bad_update.set("network", "nope");
  bad_update.set("updates", util::Json(util::JsonArray{}));
  EXPECT_FALSE(client.request(bad_update).at("ok").as_bool());

  // The daemon still answers real work after all of the above.
  client.register_network("net", make_network(3));
  const Ticket ticket =
      client.submit(make_job("ok", 60, service::Objective::kMinDelay));
  EXPECT_EQ(client.wait(ticket).at("state").as_string(), "done");

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, BlockedWaitDoesNotStallOtherClients) {
  SocketServerOptions options;
  options.start_paused = true;  // the waited-on job cannot finish yet
  SocketServer server(socket_path("wait"), options);
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClient submitter(server.socket_path());
  submitter.register_network("net", make_network(3));
  const Ticket ticket = submitter.submit(
      make_job("slow", 70, service::Objective::kMinDelay));

  // Client A blocks in the wait verb on its own connection...
  util::Json waited;
  std::thread waiter([&server, ticket, &waited]() {
    DaemonClient blocked(server.socket_path());
    waited = blocked.wait(ticket);
  });
  // ...while client B's resume must still get through — with a serial
  // front end this would deadlock the daemon permanently.
  DaemonClient other(server.socket_path());
  other.resume();
  waiter.join();
  EXPECT_EQ(waited.at("state").as_string(), "done");

  other.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, RefusesSocketPathOfALiveDaemon) {
  const std::string path = socket_path("dup");
  SocketServer first(path, SocketServerOptions{});
  // A second daemon on the same path must fail loudly, not silently
  // unlink the live endpoint.
  EXPECT_THROW(SocketServer second(path, SocketServerOptions{}),
               util::SocketError);
  // The first daemon's endpoint survived the attempt.
  std::thread serve_thread([&first]() { first.serve(); });
  DaemonClient client(path);
  EXPECT_TRUE(client.stats().at("ok").as_bool());
  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, SessionBudgetBoundsRevisionsAndReportsEvictions) {
  SocketServerOptions options;
  // Budget sized for a handful of 10-node revisions: the delta stream
  // below must evict, not accumulate.
  options.session_history_bytes = 4 * make_network(3).approx_bytes();
  SocketServer server(socket_path("evict"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  client.register_network("net", make_network(3));
  // An active subscription pins the revision it last solved against.
  service::SolveJob sub = make_job("sub", 61,
                                   service::Objective::kMaxFrameRate);
  sub.resolve_on_update = true;
  (void)client.wait(client.submit(sub));

  const graph::Edge e = first_edge(3);
  std::vector<graph::LinkUpdate> delta = {
      graph::LinkUpdate{e.from, e.to, e.attr}};
  for (int i = 1; i <= 50; ++i) {
    delta[0].attr.bandwidth_mbps = static_cast<double>(i);
    const std::vector<util::Json> resolved =
        client.apply_link_updates("net", delta);
    ASSERT_EQ(resolved.size(), 1u);  // the subscription re-solved each time
  }

  const util::Json stats = client.stats();
  // Bounded: 50 deltas published 50 revisions, the cache holds only a
  // budget's worth, and the evictions are visible in stats.
  EXPECT_LE(stats.at("cached_revisions").as_int(), 8);
  EXPECT_GE(stats.at("cache_evictions").as_int(), 40);
  EXPECT_EQ(stats.at("subscriptions").as_int(), 1);
  // Non-incremental daemon: the counters exist and stay zero.
  EXPECT_EQ(stats.at("incremental_hits").as_int(), 0);
  EXPECT_EQ(stats.at("checkpoints").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

TEST(SocketServer, IncrementalDaemonReportsReuseAndPinDiagnostics) {
  SocketServerOptions options;
  options.incremental = true;
  SocketServer server(socket_path("incremental"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  client.register_network("net", make_network(5));
  service::SolveJob sub =
      make_job("sub", 71, service::Objective::kMaxFrameRate);
  sub.resolve_on_update = true;
  (void)client.wait(client.submit(sub));

  const graph::Edge e = first_edge(5);
  std::vector<graph::LinkUpdate> delta = {
      graph::LinkUpdate{e.from, e.to, e.attr}};
  for (int i = 1; i <= 3; ++i) {
    delta[0].attr.bandwidth_mbps = 100.0 + i;
    ASSERT_EQ(client.apply_link_updates("net", delta).size(), 1u);
  }

  const util::Json stats = client.stats();
  // Capture on the first solve (one miss), column reuse on every delta.
  EXPECT_EQ(stats.at("incremental_misses").as_int(), 1);
  EXPECT_EQ(stats.at("incremental_hits").as_int(), 3);
  EXPECT_GT(stats.at("incremental_columns_reused").as_int(), 0);
  EXPECT_EQ(stats.at("checkpoints").as_int(), 1);
  EXPECT_GT(stats.at("checkpoint_bytes").as_int(), 0);
  // Steady state: the only pin is the subscription's CURRENT revision,
  // which is not superseded — so no pinned superseded revisions.
  EXPECT_EQ(stats.at("pinned_revisions").as_int(), 0);
  EXPECT_EQ(stats.at("pinned_bytes").as_int(), 0);

  client.shutdown_server();
  serve_thread.join();
}

/// Version negotiation end to end: kAuto negotiates the server's best
/// (v2), kV1 never sends hello, and a v1-pinned and a v2 client — live
/// CONCURRENTLY — observe byte-identical results for the same job while
/// the per-version stats gauges count one connection each.
TEST(SocketServer, HelloNegotiatesAndMixedVersionsAnswerIdentically) {
  SocketServer server(socket_path("hello"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });

  DaemonClientOptions v1_options;
  v1_options.protocol = ProtocolPreference::kV1;
  DaemonClient v1_client(server.socket_path(), v1_options);
  DaemonClientOptions v2_options;
  v2_options.protocol = ProtocolPreference::kV2;
  DaemonClient v2_client(server.socket_path(), v2_options);
  DaemonClient auto_client(server.socket_path());  // kAuto default

  EXPECT_EQ(v1_client.protocol_version(), 1);
  EXPECT_EQ(v2_client.protocol_version(), 2);
  EXPECT_EQ(auto_client.protocol_version(), 2);
  EXPECT_EQ(v2_client.hello_info().server_min, wire::kProtocolVersionMin);
  EXPECT_EQ(v2_client.hello_info().server_max, wire::kProtocolVersionMax);

  const StatsView live = v1_client.stats_view();
  EXPECT_GE(live.connections_v1, 1);
  EXPECT_GE(live.connections_v2, 2);
  EXPECT_EQ(live.connections_v1 + live.connections_v2, live.connections);

  // Same job through both protocols: the v2 result crosses as a binary
  // table and must reinflate to the exact v1 bytes.
  v1_client.register_network("net", make_network(3));
  const Ticket v1_ticket = v1_client.submit(
      make_job("mixed", 85, service::Objective::kMaxFrameRate));
  const Ticket v2_ticket = v2_client.submit(
      make_job("mixed", 85, service::Objective::kMaxFrameRate));
  const util::Json v1_done = v1_client.wait(v1_ticket);
  const util::Json v2_done = v2_client.wait(v2_ticket);
  ASSERT_EQ(v1_done.at("state").as_string(), "done");
  ASSERT_EQ(v2_done.at("state").as_string(), "done");
  EXPECT_EQ(v1_done.at("result").dump(), v2_done.at("result").dump());

  // Typed status views decode the same bytes on either protocol.
  const JobStatusView v1_view = v1_client.poll_status(v1_ticket);
  const JobStatusView v2_view = v2_client.poll_status(v2_ticket);
  ASSERT_TRUE(v1_view.terminal());
  ASSERT_TRUE(v2_view.terminal());
  EXPECT_EQ(service::result_entry_to_json(*v1_view.result).dump(),
            service::result_entry_to_json(*v2_view.result).dump());

  // The typed bulk path answers the same entries as the raw JSON verb.
  const graph::Edge edge = first_edge(3);
  std::vector<graph::LinkUpdate> updates = {{edge.from, edge.to, edge.attr}};
  const std::vector<util::Json> raw_entries =
      v1_client.apply_link_updates("net", updates);
  const std::vector<service::SolveResult> typed_entries =
      v2_client.resolve_link_updates("net", updates);
  ASSERT_EQ(raw_entries.size(), typed_entries.size());
  for (std::size_t i = 0; i < raw_entries.size(); ++i) {
    EXPECT_EQ(raw_entries[i].dump(),
              service::result_entry_to_json(typed_entries[i]).dump());
  }

  v1_client.shutdown_server();
  serve_thread.join();
}

/// Hello edge cases over a real socket: defaults (1..1), a disjoint
/// range (code version_mismatch), and min > max (code protocol) — plus
/// the stats frame advertising the server's range.  The client is
/// pinned to v1 so the raw hello frames are the only negotiation.
TEST(SocketServer, HelloEdgeCasesAnswerStableCodes) {
  SocketServer server(socket_path("helloedge"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClientOptions options;
  options.protocol = ProtocolPreference::kV1;
  DaemonClient client(server.socket_path(), options);

  util::Json plain = util::JsonObject{};
  plain.set("verb", "hello");
  const util::Json defaulted = client.request(plain);
  EXPECT_TRUE(defaulted.at("ok").as_bool());
  EXPECT_EQ(defaulted.at("version").as_int(), 1);

  util::Json disjoint = util::JsonObject{};
  disjoint.set("verb", "hello");
  disjoint.set("min_version", 3);
  disjoint.set("max_version", 9);
  const util::Json mismatch = client.request(disjoint);
  EXPECT_FALSE(mismatch.at("ok").as_bool());
  EXPECT_EQ(mismatch.at("code").as_string(), "version_mismatch");
  EXPECT_EQ(mismatch.at("min_version").as_int(), wire::kProtocolVersionMin);
  EXPECT_EQ(mismatch.at("max_version").as_int(), wire::kProtocolVersionMax);

  util::Json inverted = util::JsonObject{};
  inverted.set("verb", "hello");
  inverted.set("min_version", 2);
  inverted.set("max_version", 1);
  const util::Json malformed = client.request(inverted);
  EXPECT_FALSE(malformed.at("ok").as_bool());
  EXPECT_EQ(malformed.at("code").as_string(), "protocol");

  util::Json stats_frame = util::JsonObject{};
  stats_frame.set("verb", "stats");
  const util::Json stats = server.handle(stats_frame);
  EXPECT_EQ(stats.at("protocol_min").as_int(), wire::kProtocolVersionMin);
  EXPECT_EQ(stats.at("protocol_max").as_int(), wire::kProtocolVersionMax);

  client.shutdown_server();
  serve_thread.join();
}

/// handle() is the verb table without a connection: an authorized v1
/// exchange that answers submit/poll like the wire does and refuses the
/// verbs that act on a connection instead of blocking or no-op'ing.
TEST(SocketServer, DirectHandleRefusesConnectionVerbs) {
  SocketServerOptions options;
  options.threads = 1;
  options.auth_token = "secret";  // handle() is authorized regardless
  SocketServer server(socket_path("direct"), options);

  util::Json reg = util::JsonObject{};
  reg.set("verb", "register_network");
  reg.set("id", "net");
  reg.set("network", graph::to_json(make_network(3)));
  EXPECT_TRUE(server.handle(reg).at("ok").as_bool());

  util::Json submit = util::JsonObject{};
  submit.set("verb", "submit");
  submit.set("job",
             service::to_json(make_job("d", 80, service::Objective::kMinDelay)));
  submit.set("trace_id", "t-direct");
  const util::Json submitted = server.handle(submit);
  ASSERT_TRUE(submitted.at("ok").as_bool());
  EXPECT_EQ(submitted.at("trace_id").as_string(), "t-direct");
  const Ticket ticket = static_cast<Ticket>(submitted.at("ticket").as_int());
  (void)server.manager().wait(ticket);

  util::Json poll = util::JsonObject{};
  poll.set("verb", "poll");
  poll.set("ticket", static_cast<std::int64_t>(ticket));
  const util::Json polled = server.handle(poll);
  EXPECT_EQ(polled.at("state").as_string(), "done");
  EXPECT_TRUE(polled.contains("result"));    // v1: the entry inline
  EXPECT_FALSE(polled.contains("payload"));  // never a v2 frame marker

  for (const char* verb : {"auth", "hello", "wait", "drain"}) {
    util::Json frame = util::JsonObject{};
    frame.set("verb", verb);
    frame.set("ticket", static_cast<std::int64_t>(ticket));
    const util::Json refused = server.handle(frame);
    EXPECT_FALSE(refused.at("ok").as_bool()) << verb;
    EXPECT_EQ(refused.at("error").as_string(),
              std::string("verb '") + verb + "' needs a connection");
  }
  EXPECT_FALSE(server.manager().stats().draining);

  util::Json unknown = util::JsonObject{};
  unknown.set("verb", "no_such_verb");
  EXPECT_EQ(server.handle(unknown).at("error").as_string(),
            "unknown verb 'no_such_verb'");
}

/// A deadline_ms past the steady clock's nanosecond range means "no
/// practical deadline": the job runs to completion instead of expiring
/// at once because `now + deadline` wrapped into the past.
TEST(SocketServer, OversizedDeadlineDoesNotExpireTheJob) {
  SocketServerOptions options;
  options.threads = 1;
  SocketServer server(socket_path("bigdeadline"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));

  for (const std::int64_t deadline_ms :
       {std::int64_t{1000000000000}, std::int64_t{10000000000000},
        std::int64_t{9000000000000000000}}) {
    service::SolveJob job =
        make_job("big" + std::to_string(deadline_ms), 60,
                 service::Objective::kMaxFrameRate);
    job.deadline_ms = deadline_ms;
    const util::Json done = client.wait(client.submit(job));
    EXPECT_EQ(done.at("state").as_string(), "done") << deadline_ms;
  }

  client.shutdown_server();
  serve_thread.join();
}

/// A drain budget past the clock's range must neither time the queued
/// jobs out at once nor answer before they finish: the paused queue
/// runs, and the report says drained with nothing timed out.
TEST(SocketServer, OversizedDrainBudgetWaitsForTheQueue) {
  SocketServerOptions options;
  options.threads = 1;
  options.start_paused = true;
  SocketServer server(socket_path("bigdrain"), options);
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());
  client.register_network("net", make_network(3));
  std::vector<Ticket> tickets;
  for (std::uint64_t i = 0; i < 3; ++i) {
    tickets.push_back(client.submit(make_job(
        "q" + std::to_string(i), 70 + i, service::Objective::kMinDelay)));
  }

  const util::Json report = client.drain(10000000000000);
  EXPECT_TRUE(report.at("ok").as_bool());
  EXPECT_TRUE(report.at("drained").as_bool());
  EXPECT_EQ(report.at("completed").as_int(), 3);
  EXPECT_EQ(report.at("timed_out").as_int(), 0);
  for (const Ticket ticket : tickets) {
    EXPECT_EQ(client.poll(ticket).at("state").as_string(), "done");
  }

  client.shutdown_server();
  serve_thread.join();
}

/// A ticket outside int64_t answers a JSON range error instead of
/// whatever an out-of-range double-to-integer cast happens to yield.
TEST(SocketServer, OutOfRangeTicketAnswersARangeError) {
  SocketServer server(socket_path("bigticket"), SocketServerOptions{});
  std::thread serve_thread([&server]() { server.serve(); });
  DaemonClient client(server.socket_path());

  const util::Json answer =
      client.request(util::Json::parse(R"({"verb":"poll","ticket":1e30})"));
  EXPECT_FALSE(answer.at("ok").as_bool());
  EXPECT_EQ(answer.at("error").as_string(), "Json: integer out of range");

  client.shutdown_server();
  serve_thread.join();
}

/// A client demanding v2 from a server that cannot speak it must fail
/// the connect loudly (DaemonError) instead of silently downgrading —
/// simulated with a hand-rolled listener answering hello like a v1-only
/// build would (unknown verb).
TEST(SocketServer, DemandingV2FromAV1OnlyServerFailsLoudly) {
  const std::string path = socket_path("v1only");
  util::UnixListener listener(path);
  std::thread old_server([&listener]() {
    std::optional<util::UnixSocket> peer = listener.accept();
    ASSERT_TRUE(peer.has_value());
    const std::optional<std::string> line = peer->recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(util::Json::parse(*line).at("verb").as_string(), "hello");
    peer->send_line(R"({"ok": false, "error": "unknown verb 'hello'"})");
    // Hold the connection until the client gives up.
    (void)peer->recv_line();
  });

  DaemonClientOptions options;
  options.protocol = ProtocolPreference::kV2;
  options.max_retries = 0;
  EXPECT_THROW(DaemonClient(path, options), DaemonError);

  listener.close();
  old_server.join();
}

}  // namespace
}  // namespace elpc::daemon
