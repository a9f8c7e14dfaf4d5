#pragma once
// The in-process daemon under test, its set-up, and readings of its
// public `metrics` verb.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "daemon/client.hpp"
#include "daemon/socket_server.hpp"
#include "loadgen.hpp"
#include "workload.hpp"

namespace perfbench {

/// Daemon settings every workload runs with (recorded in workloads.json);
/// the engine pool size is per workload (WorkloadSpec::engine_threads).
inline constexpr std::size_t kIoWorkers = 1;
/// Per-session cache budget: large enough that no revision or
/// checkpoint is evicted in a run, so the incremental hit ratio is a
/// property of the update stream alone.
inline constexpr std::size_t kSessionHistoryBytes = std::size_t{1} << 30;

[[nodiscard]] elpc::daemon::SocketServerOptions daemon_options(
    const WorkloadSpec& spec);

/// A SocketServer with serve() on its own thread (stopped and joined on
/// destruction).
class DaemonHost {
 public:
  DaemonHost(const WorkloadSpec& spec, const std::string& socket_path);
  ~DaemonHost();

  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  [[nodiscard]] const elpc::daemon::DaemonEndpoint& endpoint() const {
    return endpoint_;
  }

 private:
  std::unique_ptr<elpc::daemon::SocketServer> server_;
  elpc::daemon::DaemonEndpoint endpoint_;
  std::thread thread_;
};

/// Unique socket path for the n-th daemon of this process, under `dir`.
[[nodiscard]] std::string socket_path(const std::string& dir, int n);

/// One daemon, set up: networks registered, subscriptions installed (when
/// requested), every distinct problem solved once through the load
/// connections.
struct Stack {
  std::unique_ptr<DaemonHost> host;
  std::unique_ptr<elpc::daemon::DaemonClient> control;
  std::unique_ptr<LoadGenerator> gen;
  /// Seconds from the daemon's construction to the end of warm-up.
  double setup_s = 0.0;

  /// Closes the client connections, then stops the daemon.
  void teardown();
};

[[nodiscard]] Stack setup_stack(const Workload& wl, AnswerBook& book,
                                const std::string& socket_path,
                                bool subscriptions);

/// Installs the subscriptions and sends each updated network's warm-up
/// batch (part of set-up where the window sends updates).
void install_subscriptions(const Workload& wl, LoadGenerator& gen);

/// Every sample of the Prometheus exposition, summed over label sets
/// (histograms contribute name_sum / name_count).
class MetricsReading {
 public:
  explicit MetricsReading(const std::string& text);
  [[nodiscard]] double operator[](const std::string& name) const;
  /// this - earlier, per name.
  [[nodiscard]] double delta(const MetricsReading& earlier,
                             const std::string& name) const {
    return (*this)[name] - earlier[name];
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
