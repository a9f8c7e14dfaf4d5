#include "host.hpp"

#include <malloc.h>
#include <unistd.h>

#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace ed = elpc::daemon;

ed::SocketServerOptions daemon_options(const WorkloadSpec& spec) {
  ed::SocketServerOptions o;
  o.threads = spec.engine_threads;
  o.io_workers = kIoWorkers;
  o.incremental = true;
  o.session_history_bytes = kSessionHistoryBytes;
  o.tcp = spec.tcp;
  o.tcp_port = 0;
  return o;
}

DaemonHost::DaemonHost(const WorkloadSpec& spec,
                       const std::string& socket_path)
    : server_(std::make_unique<ed::SocketServer>(socket_path,
                                                 daemon_options(spec))) {
  endpoint_ = spec.tcp ? ed::DaemonEndpoint::tcp_at("127.0.0.1",
                                                    server_->tcp_port())
                       : ed::DaemonEndpoint::unix_path_at(server_->socket_path());
  // The listeners are bound by the constructor, so clients may connect
  // at once; their first requests are served when the workers start.
  thread_ = std::thread([this]() { server_->serve(); });
}

DaemonHost::~DaemonHost() {
  server_->stop();
  thread_.join();
}

std::string socket_path(const std::string& dir, int n) {
  return dir + "/d" + std::to_string(::getpid()) + "-" + std::to_string(n) +
         ".sock";
}

void Stack::teardown() {
  gen.reset();
  control.reset();
  host.reset();
  // Hand the torn-down daemon's heap back to the OS, so the next
  // daemon's peak RSS does not depend on which malloc arenas its
  // threads happen to inherit.
  ::malloc_trim(0);
}

void install_subscriptions(const Workload& wl, LoadGenerator& gen) {
  for (const elpc::service::SolveJob& sub : wl.subscriptions) {
    (void)gen.solve_once(sub);
  }
  for (std::size_t n = 0; n < wl.batches.size(); ++n) {
    if (!wl.batches[n].empty()) {
      gen.apply_once(n, wl.warmup_batches[n]);
    }
  }
}

Stack setup_stack(const Workload& wl, AnswerBook& book,
                  const std::string& path, bool subscriptions) {
  Stack s;
  const std::uint64_t t0 = now_ns();
  s.host = std::make_unique<DaemonHost>(wl.spec, path);
  const ed::DaemonEndpoint& ep = s.host->endpoint();
  ed::DaemonClientOptions copt;
  copt.max_retries = 0;
  copt.auto_trace = false;
  copt.protocol = ed::ProtocolPreference::kV1;
  s.control = std::make_unique<ed::DaemonClient>(ep, copt);
  for (const auto& [id, net] : wl.networks) {
    s.control->register_network(id, net);
  }
  s.gen = std::make_unique<LoadGenerator>(wl, ep, book, subscriptions);
  if (subscriptions) {
    install_subscriptions(wl, *s.gen);
  }
  LoadOptions warm;
  warm.distinct = true;
  warm.connections = wl.spec.connections;
  SpanLog none(false);
  const LoadResult r = s.gen->run(warm, none);
  for (const JobSample& j : r.jobs) {
    if (!j.ok) {
      throw std::runtime_error("warm-up job failed");
    }
  }
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return s;
}

MetricsReading::MetricsReading(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, space);
    values_[key.substr(0, key.find('{'))] += std::stod(line.substr(space + 1));
  }
}

double MetricsReading::operator[](const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
