#pragma once
// Single-threaded load generator: one poll() loop drives every
// connection to the daemon — closed-loop job connections (one job in
// flight each: submit, then wait) and one open-loop updater per network
// (link-update batches on a fixed-rate schedule).  It speaks the wire
// protocol itself (v1 JSON lines, v2 control lines + binary frames) so
// it can count every byte and timestamp every leg.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "daemon/client.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Canonical answers, kept per (problem or subscription, network
/// revision) as a 64-bit FNV-1a digest plus length of their bytes (the
/// book stays small however long the window).  Every answer is compared
/// with the first one seen for its key; the checker then compares each
/// key's answer with a direct solve, so every answer is checked against
/// the reference.
class AnswerBook {
 public:
  enum class Kind { kJob, kResolve };
  struct Entry {
    std::uint64_t digest = 0;
    std::size_t length = 0;
    std::size_t ops = 0;
  };
  [[nodiscard]] static Entry fingerprint(const std::string& bytes);
  using Key = std::tuple<int, std::size_t, std::uint64_t>;

  /// False when `bytes` differs from the answer already on file.
  bool record(Kind kind, std::size_t index, std::uint64_t revision,
              const std::string& bytes);
  [[nodiscard]] const std::map<Key, Entry>& entries() const {
    return entries_;
  }

 private:
  std::map<Key, Entry> entries_;
};

struct JobSample {
  std::uint32_t problem = 0;
  std::uint32_t conn = 0;
  std::uint64_t due_ns = 0;  // when the connection was ready to send
  std::uint64_t sent_ns = 0;
  std::uint64_t ticket_ns = 0;
  std::uint64_t done_ns = 0;
  bool ok = false;
};

struct UpdateSample {
  std::uint32_t network = 0;
  std::uint32_t batch = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  std::size_t results = 0;
  bool ok = false;
};

struct LoadOptions {
  /// Issue window; new jobs stop at start + seconds, in-flight ones
  /// finish.  Ignored when max_jobs > 0.
  double seconds = 0.0;
  /// > 0: issue exactly this many jobs (from the stream cursor) instead.
  std::size_t max_jobs = 0;
  /// Issue every distinct problem once, in order (warm-up), instead of
  /// the stream; the stream cursor does not move.
  bool distinct = false;
  /// Job connections used (<= connected ones).
  std::size_t connections = 0;
  /// Run the updaters: `batches` per network, each due on the fixed
  /// schedule (or, with asap, as soon as the previous one answered).
  bool updates = false;
  bool asap = false;
  std::size_t batches = 0;
  /// Keep each job's JSON lines (request/response, both legs).
  bool keep_frames = false;
};

/// Process CPU time (user + system, µs) read at `ns`.
struct CpuSample {
  std::uint64_t ns = 0;
  double cpu_us = 0.0;
};

struct LoadResult {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Process CPU time every kCpuSampleNs through the run (first at the
  /// start, last at the end).
  std::vector<CpuSample> cpu;
  std::vector<JobSample> jobs;
  std::vector<UpdateSample> updates;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Answers that differed from an earlier answer for the same key.
  std::size_t conflicts = 0;
  /// Per job (issue order), its JSON lines when keep_frames is set.
  std::vector<std::vector<std::string>> frames;
};

class LoadGenerator {
 public:
  /// Opens `spec.connections` job connections plus, with `updaters`, one
  /// updater connection per network that receives updates, negotiating
  /// the workload's protocol on each.
  LoadGenerator(const Workload& workload,
                const elpc::daemon::DaemonEndpoint& endpoint,
                AnswerBook& book, bool updaters);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  [[nodiscard]] LoadResult run(const LoadOptions& options, SpanLog& spans);

  /// Submits `job` and waits for it on job connection 0 (setup path:
  /// subscription installs); returns the canonical answer or throws.
  std::string solve_once(const elpc::service::SolveJob& job);

  /// Sends one batch on network `net`'s updater and waits for the answer
  /// (warm-up path); throws on failure.
  void apply_once(std::size_t net,
                  const std::vector<elpc::graph::LinkUpdate>& batch);

  /// Revision each network is at, as far as this generator applied.
  [[nodiscard]] const std::vector<std::uint64_t>& revisions() const {
    return revisions_;
  }

  struct Conn;

 private:
  const Workload& wl_;
  AnswerBook& book_;
  int protocol_ = 1;
  std::vector<std::string> submit_lines_;
  std::vector<Conn> jobs_;
  std::vector<Conn> updaters_;
  std::size_t cursor_ = 0;
  std::vector<std::uint64_t> revisions_;
  std::vector<std::size_t> batch_cursor_;
  std::map<std::string, std::size_t> sub_index_;
};

}  // namespace perfbench
