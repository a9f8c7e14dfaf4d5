#include "loadgen.hpp"

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "daemon/wire_format.hpp"
#include "service/serialize.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace eu = elpc::util;
namespace es = elpc::service;
namespace wire = elpc::daemon::wire;

namespace {

constexpr std::uint64_t kCpuSampleNs = 250'000'000;

/// Process CPU time so far (user + system), µs.
double process_cpu_us() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };
  return us(u.ru_utime) + us(u.ru_stime);
}

}  // namespace

AnswerBook::Entry AnswerBook::fingerprint(const std::string& bytes) {
  Entry e;
  e.digest = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    e.digest = (e.digest ^ c) * 0x100000001b3ULL;
  }
  e.length = bytes.size();
  return e;
}

bool AnswerBook::record(Kind kind, std::size_t index, std::uint64_t revision,
                        const std::string& bytes) {
  const Entry f = fingerprint(bytes);
  Entry& e = entries_[Key{static_cast<int>(kind), index, revision}];
  if (e.ops == 0) {
    e = f;
  } else if (e.digest != f.digest || e.length != f.length) {
    return false;
  }
  ++e.ops;
  return true;
}

struct LoadGenerator::Conn {
  enum class State { kIdle, kAwaitTicket, kAwaitResult, kAwaitUpdate };
  eu::StreamSocket sock;
  std::string in;
  std::size_t rpos = 0;
  std::string out;
  /// A v2 control line announced a binary frame that has not arrived.
  bool want_frame = false;
  eu::Json control;
  std::string control_line;
  State state = State::kIdle;
  std::uint32_t index = 0;
  std::uint64_t idle_since = 0;
  JobSample job;
  std::uint64_t op = 0;
  /// Index of this job's entry in LoadResult::frames (npos = none).
  std::size_t frames = std::string::npos;
  UpdateSample update;
};

namespace {

using Conn = LoadGenerator::Conn;

struct Message {
  eu::Json control;
  std::string line;
  std::string frame;
};

/// Pops one complete response (a JSON line, plus its binary frame when
/// the line announces one) from the connection's read buffer.
bool take_message(Conn& c, Message& m) {
  for (;;) {
    if (c.want_frame) {
      const std::string_view avail =
          std::string_view(c.in).substr(c.rpos);
      const std::optional<wire::FrameHeader> header =
          wire::parse_header(avail);
      if (!header.has_value() ||
          avail.size() < wire::kHeaderBytes + header->length) {
        return false;
      }
      m.frame.assign(avail.substr(wire::kHeaderBytes, header->length));
      c.rpos += wire::kHeaderBytes + header->length;
      c.want_frame = false;
      m.control = std::move(c.control);
      m.line = std::move(c.control_line);
      break;
    }
    const std::size_t nl = c.in.find('\n', c.rpos);
    if (nl == std::string::npos) {
      return false;
    }
    std::string line = c.in.substr(c.rpos, nl - c.rpos);
    c.rpos = nl + 1;
    eu::Json j = eu::Json::parse(line);
    if (j.find("payload") != nullptr) {
      c.want_frame = true;
      c.control = std::move(j);
      c.control_line = std::move(line);
      continue;
    }
    m.control = std::move(j);
    m.line = std::move(line);
    m.frame.clear();
    break;
  }
  if (c.rpos == c.in.size()) {
    c.in.clear();
    c.rpos = 0;
  } else if (c.rpos > (1u << 16)) {
    c.in.erase(0, c.rpos);
    c.rpos = 0;
  }
  return true;
}

/// Reads whatever the kernel has; false on EOF/error.
bool read_available(Conn& c, std::uint64_t& bytes) {
  for (;;) {
    const std::size_t before = c.in.size();
    switch (c.sock.recv_available(c.in, 1 << 16)) {
      case eu::StreamSocket::IoStatus::kOk:
        bytes += c.in.size() - before;
        continue;
      case eu::StreamSocket::IoStatus::kWouldBlock:
        return true;
      case eu::StreamSocket::IoStatus::kEof:
      case eu::StreamSocket::IoStatus::kError:
        return false;
    }
  }
}

void flush(Conn& c) {
  if (!c.out.empty() &&
      c.sock.send_pending(c.out) == eu::StreamSocket::IoStatus::kError) {
    throw std::runtime_error("daemon connection failed on send");
  }
}

void send(Conn& c, std::string_view bytes, std::uint64_t& counter) {
  c.out.append(bytes);
  counter += bytes.size();
  flush(c);
}

/// Blocks until one message is complete on `c` (setup paths only).
Message await_message(Conn& c) {
  Message m;
  std::uint64_t ignored = 0;
  while (!take_message(c, m)) {
    pollfd p{c.sock.fd(), static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&p, 1, 60000) <= 0) {
      throw std::runtime_error("daemon did not answer within 60 s");
    }
    flush(c);
    if ((p.revents & POLLIN) != 0 && !read_available(c, ignored)) {
      throw std::runtime_error("daemon closed the connection");
    }
  }
  return m;
}

Conn open_conn(const elpc::daemon::DaemonEndpoint& ep, int protocol) {
  Conn c;
  c.sock = ep.is_tcp() ? eu::StreamSocket::connect_tcp(ep.tcp_host, ep.tcp_port)
                       : eu::StreamSocket::connect(ep.unix_path);
  if (protocol >= 2) {
    c.sock.send_line(R"({"max_version":2,"min_version":2,"verb":"hello"})");
    const std::optional<std::string> line = c.sock.recv_line();
    if (!line.has_value() || eu::Json::parse(*line).at("version").as_int() !=
                                 protocol) {
      throw std::runtime_error("protocol negotiation failed");
    }
  }
  c.sock.set_nonblocking(true);
  return c;
}

std::string wait_line(std::int64_t ticket) {
  return R"({"ticket":)" + std::to_string(ticket) + R"(,"verb":"wait"})" "\n";
}

std::string update_request(int protocol, const std::string& network,
                           const std::vector<elpc::graph::LinkUpdate>& batch) {
  if (protocol >= 2) {
    const std::string table = wire::encode_link_update_table(network, batch);
    return wire::encode_header(wire::FrameType::kLinkUpdateTable, 0,
                               static_cast<std::uint32_t>(table.size())) +
           table;
  }
  eu::Json frame = eu::JsonObject{};
  frame.set("verb", "apply_link_updates");
  frame.set("network", network);
  frame.set("updates", es::link_updates_to_json(batch));
  return frame.dump() + "\n";
}

/// The job's canonical answer from a terminal wait response, or nullopt
/// when the job did not finish "done".
std::optional<std::pair<std::string, std::uint64_t>> job_answer(
    const Message& m) {
  if (!m.control.at("ok").as_bool() ||
      m.control.at("state").as_string() != "done") {
    return std::nullopt;
  }
  if (!m.frame.empty()) {
    const std::vector<es::SolveResult> results =
        wire::decode_result_table(m.frame);
    if (results.size() != 1) {
      return std::nullopt;
    }
    return std::make_pair(es::result_entry_to_json(results[0]).dump(),
                          results[0].network_revision);
  }
  const eu::Json& result = m.control.at("result");
  return std::make_pair(
      result.dump(),
      static_cast<std::uint64_t>(result.at("revision").as_int()));
}

/// Canonical re-solve answers of an apply_link_updates response.
std::optional<std::vector<std::pair<std::string, es::SolveResult>>>
update_answers(const Message& m) {
  if (!m.control.at("ok").as_bool()) {
    return std::nullopt;
  }
  std::vector<std::pair<std::string, es::SolveResult>> out;
  if (!m.frame.empty()) {
    for (es::SolveResult& r : wire::decode_result_table(m.frame)) {
      std::string bytes = es::result_entry_to_json(r).dump();
      out.emplace_back(std::move(bytes), std::move(r));
    }
  } else {
    for (const eu::Json& entry : m.control.at("results").as_array()) {
      out.emplace_back(entry.dump(), es::result_entry_from_json(entry));
    }
  }
  return out;
}

}  // namespace

LoadGenerator::LoadGenerator(const Workload& workload,
                             const elpc::daemon::DaemonEndpoint& endpoint,
                             AnswerBook& book,
                             bool updaters)
    : wl_(workload), book_(book), protocol_(workload.spec.protocol) {
  for (const es::SolveJob& job : wl_.problems) {
    eu::Json frame = eu::JsonObject{};
    frame.set("verb", "submit");
    frame.set("job", es::to_json(job));
    frame.set("priority", 0);
    submit_lines_.push_back(frame.dump() + "\n");
  }
  for (std::size_t i = 0; i < wl_.spec.connections; ++i) {
    jobs_.push_back(open_conn(endpoint, protocol_));
    jobs_.back().index = static_cast<std::uint32_t>(i + 1);
  }
  for (std::size_t n = 0; updaters && n < wl_.batches.size(); ++n) {
    if (wl_.batches[n].empty()) {
      break;
    }
    updaters_.push_back(open_conn(endpoint, protocol_));
    updaters_.back().index = static_cast<std::uint32_t>(100 + n);
  }
  revisions_.assign(wl_.networks.size(), 0);
  batch_cursor_.assign(wl_.networks.size(), 0);
  for (std::size_t s = 0; s < wl_.subscriptions.size(); ++s) {
    sub_index_[wl_.subscriptions[s].id] = s;
  }
}

LoadGenerator::~LoadGenerator() = default;

std::string LoadGenerator::solve_once(const es::SolveJob& job) {
  Conn& c = jobs_.front();
  std::uint64_t ignored = 0;
  eu::Json frame = eu::JsonObject{};
  frame.set("verb", "submit");
  frame.set("job", es::to_json(job));
  send(c, frame.dump() + "\n", ignored);
  const Message ticket = await_message(c);
  if (!ticket.control.at("ok").as_bool()) {
    throw std::runtime_error("submit refused: " + ticket.line);
  }
  send(c, wait_line(ticket.control.at("ticket").as_int()), ignored);
  const auto answer = job_answer(await_message(c));
  if (!answer.has_value()) {
    throw std::runtime_error("job '" + job.id + "' did not finish");
  }
  const auto sub = sub_index_.find(job.id);
  if (sub != sub_index_.end()) {
    book_.record(AnswerBook::Kind::kResolve, sub->second, answer->second,
                 answer->first);
  }
  return answer->first;
}

void LoadGenerator::apply_once(
    std::size_t net, const std::vector<elpc::graph::LinkUpdate>& batch) {
  Conn& c = updaters_.at(net);
  std::uint64_t ignored = 0;
  send(c, update_request(protocol_, wl_.networks[net].first, batch), ignored);
  const auto answers = update_answers(await_message(c));
  if (!answers.has_value()) {
    throw std::runtime_error("warm-up update refused");
  }
  ++revisions_[net];
  for (const auto& [bytes, r] : *answers) {
    book_.record(AnswerBook::Kind::kResolve, sub_index_.at(r.job_id),
                 r.network_revision, bytes);
  }
}

LoadResult LoadGenerator::run(const LoadOptions& opt, SpanLog& spans) {
  LoadResult r;
  r.start_ns = now_ns();
  r.cpu.push_back({r.start_ns, process_cpu_us()});
  const std::size_t nconn = std::min(opt.connections, jobs_.size());
  const std::uint64_t stop_ns =
      opt.max_jobs > 0 || opt.distinct
          ? std::numeric_limits<std::uint64_t>::max()
          : r.start_ns + static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::size_t job_budget =
      opt.distinct ? wl_.problems.size() : opt.max_jobs;
  std::size_t issued = 0;
  std::uint64_t next_op = 1;
  const std::size_t nupd = opt.updates ? updaters_.size() : 0;
  std::vector<std::size_t> sent(nupd, 0);
  const double period_ns = 1e9 / kBatchesPerSecond;
  const auto due_at = [&](std::size_t n, std::size_t i) {
    const double phase =
        static_cast<double>(n) / static_cast<double>(std::max<std::size_t>(1, nupd));
    return r.start_ns + static_cast<std::uint64_t>(
                            (static_cast<double>(i) + phase) * period_ns);
  };
  for (Conn& c : jobs_) {
    c.idle_since = r.start_ns;
  }
  for (Conn& c : updaters_) {
    c.idle_since = r.start_ns;
  }

  const auto can_issue = [&](std::uint64_t now) {
    return job_budget > 0 ? issued < job_budget : now < stop_ns;
  };
  const auto issue_job = [&](Conn& c, std::uint64_t now) {
    const std::uint32_t problem =
        opt.distinct
            ? static_cast<std::uint32_t>(issued)
            : wl_.job_stream[cursor_++ % wl_.job_stream.size()];
    ++issued;
    c.job = JobSample{};
    c.job.problem = problem;
    c.job.conn = c.index;
    c.job.due_ns = c.idle_since;
    c.op = next_op++;
    c.frames = std::string::npos;
    if (opt.keep_frames) {
      c.frames = r.frames.size();
      r.frames.push_back({submit_lines_[problem]});
    }
    c.job.sent_ns = now;
    c.state = Conn::State::kAwaitTicket;
    send(c, submit_lines_[problem], r.bytes_sent);
  };
  const auto issue_update = [&](std::size_t n, std::uint64_t due,
                                std::uint64_t now) {
    Conn& c = updaters_[n];
    const std::size_t b = batch_cursor_[n]++;
    if (b >= wl_.batches[n].size()) {
      throw std::runtime_error("update schedule ran past its batches");
    }
    c.update = UpdateSample{};
    c.update.network = static_cast<std::uint32_t>(n);
    c.update.batch = static_cast<std::uint32_t>(b);
    c.update.due_ns = due;
    c.update.sent_ns = now;
    c.op = next_op++;
    c.state = Conn::State::kAwaitUpdate;
    ++sent[n];
    send(c, update_request(protocol_, wl_.networks[n].first,
                           wl_.batches[n][b]),
         r.bytes_sent);
  };
  const auto finish_job = [&](Conn& c, std::uint64_t now, bool ok) {
    c.job.done_ns = now;
    c.job.ok = ok;
    r.jobs.push_back(c.job);
    spans.add({"job", c.job.sent_ns, now, c.op, "", c.index});
    spans.add({"submit", c.job.sent_ns, c.job.ticket_ns, c.op, "job", c.index});
    spans.add({"wait", c.job.ticket_ns, now, c.op, "job", c.index});
    c.state = Conn::State::kIdle;
    c.idle_since = now;
  };
  const auto on_job_message = [&](Conn& c, Message& m, std::uint64_t now) {
    if (c.frames != std::string::npos) {
      r.frames[c.frames].push_back(m.line);
    }
    if (c.state == Conn::State::kAwaitTicket) {
      c.job.ticket_ns = now;
      if (!m.control.at("ok").as_bool()) {
        finish_job(c, now, false);
        return;
      }
      const std::string line = wait_line(m.control.at("ticket").as_int());
      if (c.frames != std::string::npos) {
        r.frames[c.frames].push_back(line);
      }
      c.state = Conn::State::kAwaitResult;
      send(c, line, r.bytes_sent);
      return;
    }
    const auto answer = job_answer(m);
    bool ok = answer.has_value();
    if (ok && !book_.record(AnswerBook::Kind::kJob, c.job.problem,
                            answer->second, answer->first)) {
      ++r.conflicts;
      ok = false;
    }
    finish_job(c, now, ok);
  };
  const auto on_update_message = [&](Conn& c, Message& m, std::uint64_t now) {
    UpdateSample& u = c.update;
    u.done_ns = now;
    const auto answers = update_answers(m);
    u.ok = answers.has_value();
    if (u.ok) {
      const std::uint64_t revision = ++revisions_[u.network];
      u.results = answers->size();
      for (const auto& [bytes, res] : *answers) {
        const auto sub = sub_index_.find(res.job_id);
        if (sub == sub_index_.end() || res.network_revision != revision ||
            !book_.record(AnswerBook::Kind::kResolve, sub->second, revision,
                          bytes)) {
          ++r.conflicts;
          u.ok = false;
        }
      }
    }
    r.updates.push_back(u);
    spans.add({"update", u.due_ns, now, c.op, "", c.index});
    spans.add({"apply", u.sent_ns, now, c.op, "update", c.index});
    c.state = Conn::State::kIdle;
    c.idle_since = now;
  };

  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (;;) {
    std::uint64_t now = now_ns();
    if (now - r.cpu.back().ns >= kCpuSampleNs) {
      r.cpu.push_back({now, process_cpu_us()});
    }
    bool busy = false;
    std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < nconn; ++i) {
      Conn& c = jobs_[i];
      if (c.state == Conn::State::kIdle && can_issue(now)) {
        issue_job(c, now);
      }
      busy = busy || c.state != Conn::State::kIdle;
    }
    if (job_budget == 0 && can_issue(now)) {
      wake = stop_ns;
    }
    for (std::size_t n = 0; n < nupd; ++n) {
      Conn& c = updaters_[n];
      if (c.state == Conn::State::kIdle && sent[n] < opt.batches) {
        const std::uint64_t due = opt.asap ? c.idle_since : due_at(n, sent[n]);
        if (due <= now) {
          issue_update(n, due, now);
        } else {
          wake = std::min(wake, due);
        }
      }
      busy = busy || c.state != Conn::State::kIdle || sent[n] < opt.batches;
    }
    if (!busy) {
      break;
    }
    fds.clear();
    owners.clear();
    const auto watch = [&](Conn& c) {
      if (c.state != Conn::State::kIdle || !c.out.empty()) {
        fds.push_back({c.sock.fd(),
                       static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                       0});
        owners.push_back(&c);
      }
    };
    for (std::size_t i = 0; i < nconn; ++i) {
      watch(jobs_[i]);
    }
    for (std::size_t n = 0; n < nupd; ++n) {
      watch(updaters_[n]);
    }
    const std::uint64_t wait_ns =
        wake == std::numeric_limits<std::uint64_t>::max()
            ? 100'000'000
            : (wake > now ? std::min<std::uint64_t>(wake - now, 100'000'000)
                          : 0);
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    now = now_ns();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = *owners[i];
      if ((fds[i].revents & POLLOUT) != 0) {
        flush(c);
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      if (!read_available(c, r.bytes_received)) {
        throw std::runtime_error("daemon closed a load connection");
      }
      Message m;
      while (take_message(c, m)) {
        if (c.state == Conn::State::kAwaitUpdate) {
          on_update_message(c, m, now);
        } else if (c.state != Conn::State::kIdle) {
          on_job_message(c, m, now);
        } else {
          throw std::runtime_error("unsolicited daemon message: " + m.line);
        }
      }
    }
  }
  r.end_ns = now_ns();
  r.cpu.push_back({r.end_ns, process_cpu_us()});
  return r;
}

}  // namespace perfbench
