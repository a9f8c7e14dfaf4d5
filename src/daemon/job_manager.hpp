#pragma once
// JobManager — the asynchronous admission layer of the mapping daemon.
//
// service::BatchEngine::solve(jobs) is a blocking call: the caller hands
// over a batch and waits.  A serving process needs the opposite shape —
// accept work immediately, answer "how is it going?" cheaply, and let
// callers walk away (cancel).  JobManager provides that as a facade over
// one BatchEngine:
//
//   submit(job, priority)  -> Ticket, immediately; the job enters a
//                             priority queue (higher first, FIFO within
//                             a priority)
//   poll(ticket)           -> QUEUED / RUNNING / DONE / FAILED /
//                             CANCELLED, plus the result once terminal
//   cancel(ticket)         -> removes a queued job outright; a running
//                             job is flagged and its solve stops at the
//                             next DP column
//   wait(ticket)           -> blocks until terminal (the daemon's `wait`
//                             verb; poll is the non-blocking form)
//
// Per-job dispatch: the manager posts up to one pull task per engine
// worker to the engine's own pool.  A pull task takes the
// highest-priority queued job, solves it on its own thread
// (BatchEngine::solve_job — one arena lease, no further pool hop), marks
// it terminal, and fires its wait_async callbacks after releasing the
// manager mutex.  Each job is answered when its own solve ends, never
// held back by a slower job dispatched beside it.  While jobs remain
// queued the task re-posts itself instead of looping, so other work on
// the same pool (apply_link_updates re-solves) interleaves with the job
// stream instead of waiting for the queue to empty.  Results are
// identical to calling BatchEngine::solve directly with the same jobs:
// the manager adds scheduling, never configuration (pinned by
// tests/daemon/).
//
// One dispatcher thread remains, for deadlines only: it expires overdue
// queued jobs (also while paused) and runs no solve.
//
// pause()/resume() gate dispatch (drain-for-maintenance, deterministic
// tests); stop() (and the destructor) lets each running job finish,
// leaves still-queued jobs QUEUED, waits until no pull task touches the
// manager, and joins the dispatcher.
//
// Deadlines: a job submitted with deadline_ms > 0 gets an absolute
// deadline measured FROM SUBMISSION — queue wait counts against the
// budget.  An overdue queued job is expired by the dispatcher without
// running (even while paused); a running one is stopped by the engine's
// per-column abort probe.  Either way it reaches the terminal kTimedOut
// state and its result carries service::kTimedOutError.
//
// drain(): the graceful path to a safe kill — permanently closes
// admission (submit throws), lifts any pause, imposes the drain budget
// as a deadline on everything queued or running, and blocks until the
// manager is idle (or the budget + a small grace elapsed).  The report
// says whether the daemon is now safe to stop().
//
// Memory: a queued job lives in the queue until a pull task moves it
// into its solve; a terminal record keeps only what poll/wait and the
// trace span answer (trace id, priority, state, result), never the
// pipeline — the max_retained_results records a daemon holds stay small.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "daemon/trace.hpp"
#include "service/batch_engine.hpp"
#include "util/metrics.hpp"

namespace elpc::daemon {

/// Opaque handle for a submitted job (monotonically increasing from 1).
using Ticket = std::uint64_t;

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut
};

/// Wire name of a state ("queued", "running", "done", "failed",
/// "cancelled", "timed_out").
[[nodiscard]] std::string job_state_name(JobState state);

/// One poll() answer: where the job stands, and its outcome once
/// terminal (kDone / kFailed — for kCancelled / kTimedOut the result
/// carries only the marker).
struct JobStatus {
  Ticket ticket = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  /// The job's client-stamped correlation id ("" when the client sent
  /// none) — echoed on every poll/wait answer so a caller can join the
  /// response with its own logs and the daemon's trace timeline.
  std::string trace_id;
  service::SolveResult result;
  /// Set by wait() when it released the caller because the manager is
  /// stopping and the job will never run — the `wait` verb forwards it
  /// so a client can tell "still queued, daemon dying" from "still
  /// queued, keep waiting".
  bool shutting_down = false;

  [[nodiscard]] bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled || state == JobState::kTimedOut;
  }
};

struct JobManagerOptions {
  /// Start with dispatch gated (resume() opens it) — submissions queue
  /// up but nothing runs.  Used by tests and maintenance restarts.
  bool start_paused = false;
  /// Terminal records retained for poll-after-completion, oldest evicted
  /// first (0 = unlimited).  A serving daemon must not grow per answered
  /// job forever; polling an evicted ticket reports it as unknown.
  std::size_t max_retained_results = 10000;
  /// Registry the manager publishes to: terminal-state counters plus the
  /// elpc_queue_wait_ms / elpc_e2e_ms trace histograms.  Null = a
  /// manager-private registry (counters stay registry-backed either
  /// way); the daemon shares SocketServer's.
  util::MetricsRegistry* metrics = nullptr;
  /// Slow-solve ring (borrowed, may be null): every terminal span whose
  /// end-to-end time reaches slow_ms is added.  slow_ms <= 0 disables
  /// slow logging even with a ring attached.
  SlowLog* slowlog = nullptr;
  std::int64_t slow_ms = 0;
  /// Trace ring (borrowed, may be null): EVERY terminal span is added,
  /// fast or slow — this is the `trace` verb's source of parent slices
  /// for the Chrome-trace export, and its total_added equals the
  /// cumulative terminal count by the mark_terminal funnel (a chaos
  /// conservation invariant).  Distinct from slowlog, which keeps only
  /// spans crossing slow_ms.
  SlowLog* tracelog = nullptr;
};

/// Queue/throughput counters (daemon `stats` verb).  The terminal
/// counters are cumulative since start — they keep counting after the
/// records themselves are evicted by max_retained_results.
struct JobManagerStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t submitted = 0;
  bool paused = false;
  bool draining = false;
};

/// What drain() accomplished: `drained` means the manager is idle —
/// nothing queued, nothing running — and the daemon is safe to kill.
/// The counters cover terminal transitions during the drain.
struct DrainReport {
  bool drained = false;
  /// Jobs that reached kDone/kFailed/kCancelled while draining.
  std::uint64_t completed = 0;
  /// Jobs the drain budget expired (kTimedOut) while draining.
  std::uint64_t timed_out = 0;
  /// Still queued / running when drain() returned (0/0 iff drained).
  std::size_t queued = 0;
  std::size_t running = 0;
};

class JobManager {
 public:
  /// The engine is borrowed and must outlive the manager.
  explicit JobManager(service::BatchEngine& engine,
                      JobManagerOptions options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueues the job and returns its ticket immediately.  Higher
  /// priority dispatches first; ties dispatch in submission order.
  /// Unknown networks are NOT rejected here (registration may race
  /// admission); the job fails at dispatch instead.  A deadline_ms > 0
  /// starts the job's clock NOW — queue wait counts.  Throws
  /// std::runtime_error once drain() closed admission.
  Ticket submit(service::SolveJob job, int priority = 0);

  /// Where the job stands.  Throws std::out_of_range for a ticket that
  /// was never issued — or whose terminal record was already evicted by
  /// the max_retained_results cap; within the cap, polling after
  /// completion keeps working.
  [[nodiscard]] JobStatus poll(Ticket ticket) const;

  /// Blocks until the job reaches a terminal state and returns it.
  JobStatus wait(Ticket ticket);

  /// Non-parking wait: registers `callback` to run exactly once with the
  /// job's terminal status — the epoll front end's replacement for a
  /// handler thread blocked in wait().  Fires inline (from this call)
  /// when the job is already terminal or the manager is stopping;
  /// otherwise from whichever thread drives the terminal transition (a
  /// pull task on an engine worker, the dispatcher, a cancel caller) or
  /// from stop(), with shutting_down set when the state will never
  /// advance.  Callbacks run WITHOUT the manager mutex, but on a thread
  /// that has work waiting: keep them short (send a frame, signal an
  /// event loop), and never call stop() from one.  Throws
  /// std::out_of_range for a ticket that was never issued or whose
  /// record was already evicted.
  void wait_async(Ticket ticket,
                  std::function<void(const JobStatus&)> callback);

  /// True when the request was accepted: a queued job is cancelled
  /// outright (terminal immediately); a running one is flagged, and its
  /// solve stops at the next DP column — poll() then reports
  /// kCancelled, or kDone if the solve won the race.
  /// False — a no-op — when the job was already terminal.  Throws
  /// std::out_of_range for a ticket that was never issued.
  bool cancel(Ticket ticket);

  /// Gate / reopen dispatch.  Pausing does not interrupt running jobs;
  /// it stops the next one from starting.
  void pause();
  void resume();

  [[nodiscard]] JobManagerStats stats() const;

  /// Graceful drain: permanently closes admission (submit throws from
  /// now on), lifts any pause, and waits for everything queued or
  /// running to reach a terminal state.  timeout_ms > 0 bounds the
  /// wait: it becomes a deadline on every in-flight and queued job (so
  /// stragglers finish as kTimedOut), and drain() returns within the
  /// budget plus a small unwind grace either way.  timeout_ms <= 0
  /// waits indefinitely.  Safe to call more than once; later calls just
  /// re-wait.  Does NOT stop the dispatcher — call stop() (or destroy
  /// the manager) once the report says drained.
  DrainReport drain(std::int64_t timeout_ms);

  /// Counter snapshot taken when a drain started; drain_progress diffs
  /// against it so the report covers only the drain window.
  struct DrainBaseline {
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t timed_out = 0;
  };

  /// The non-blocking half of drain(): closes admission, lifts any
  /// pause, imposes the budget deadline on everything in flight, and
  /// returns immediately with the baseline.  Pair with notify_when_idle
  /// (plus the caller's own timeout timer) and drain_progress — the
  /// epoll front end's drain verb, which must not park an IO worker for
  /// the whole budget.  Safe to call more than once.
  [[nodiscard]] DrainBaseline begin_drain(std::int64_t timeout_ms);

  /// The report drain() would return right now, relative to `baseline`.
  [[nodiscard]] DrainReport drain_progress(const DrainBaseline& baseline)
      const;

  /// Runs `callback` once when the manager is idle (nothing queued,
  /// nothing running, no pull task in flight) or stopping — inline when
  /// that already holds.  Runs with the manager mutex held: it must not
  /// call back into the JobManager.
  void notify_when_idle(std::function<void()> callback);

  /// True once drain() has closed admission.
  [[nodiscard]] bool draining() const;

  /// Stops dispatch: running jobs finish, queued jobs stay QUEUED, and
  /// stop() returns once no pull task touches the manager any more and
  /// the dispatcher is joined.  Idempotent; the destructor calls it.
  /// Must not be called from a wait_async callback (it would wait on
  /// the pull task running it).
  void stop();

 private:
  using Clock = std::chrono::steady_clock;

  struct Record {
    int priority = 0;
    JobState state = JobState::kQueued;
    bool cancel_requested = false;
    /// Absolute deadline (from submission, or imposed by drain());
    /// meaningful only when has_deadline.
    Clock::time_point deadline{};
    bool has_deadline = false;
    /// Trace phase timestamps: stamped at submit() and when a pull task
    /// takes the job.  A job that turns terminal without ever running
    /// (queue cancel, queue expiry) leaves dispatched = false and its
    /// whole lifetime counts as queue wait.
    Clock::time_point submitted_at{};
    Clock::time_point dispatched_at{};
    bool dispatched = false;
    std::string trace_id;
    /// The outcome once terminal; its identity fields (job id, network,
    /// objective) are what the trace span cites.
    service::SolveResult result;
  };

  /// Dispatch order: higher priority first, then submission order
  /// (tickets increase monotonically).
  struct QueueKey {
    int priority = 0;
    Ticket ticket = 0;
  };
  struct QueueOrder {
    bool operator()(const QueueKey& a, const QueueKey& b) const {
      return a.priority != b.priority ? a.priority > b.priority
                                      : a.ticket < b.ticket;
    }
  };

  /// A terminal ticket's wait_async callbacks and the status they get:
  /// collected under mutex_, run after it is released.
  struct Completion {
    JobStatus status;
    std::vector<std::function<void(const JobStatus&)>> callbacks;
  };
  using Completions = std::vector<Completion>;
  static void run_completions(const Completions& completions);

  void dispatch_loop();
  /// One pull task: takes the first queued job, solves it on the
  /// calling (engine worker) thread, marks it terminal, runs its
  /// callbacks, then re-posts itself while jobs remain queued.
  void pull();
  /// Counts pull tasks to post so that every queued job has one, within
  /// one per engine worker (none while paused or stopping).  Caller
  /// holds mutex_, then posts the returned number after releasing it.
  [[nodiscard]] std::size_t reserve_pulls();
  /// Posts `count` pull tasks already counted in pulls_.
  void post_pulls(std::size_t count);
  /// The per-column signal of a running job: its cancel flag and its
  /// submission-clock deadline, read under mutex_.
  [[nodiscard]] service::JobSignal signal_of(const Record& record) const;
  /// Expires queued jobs whose deadline has passed (terminal kTimedOut
  /// without running; works while paused — a gated queue must not hold
  /// deadline jobs in limbo).  Returns whether any expired.  Caller
  /// holds mutex_ and notifies done_cv_ on true.
  bool expire_overdue_queued(Completions& completions);
  /// Earliest deadline among queued jobs, or time_point::max().  Caller
  /// holds mutex_.
  [[nodiscard]] Clock::time_point earliest_queued_deadline() const;
  /// Marks a record terminal: bumps the cumulative counter, assembles
  /// the ticket's TraceSpan (feeding the queue-wait / end-to-end
  /// histograms, and the slowlog when it qualifies), hands the ticket's
  /// wait_async callbacks to `completions`, queues the record for
  /// retention-cap eviction, prunes over-cap records.  EVERY terminal
  /// transition funnels through here — pull tasks, queue-side cancels,
  /// queue expiry — so histogram sample totals equal terminal tickets by
  /// construction (the chaos driver's conservation invariant).  Caller
  /// holds mutex_, notifies done_cv_ afterwards, and runs the
  /// completions once it released mutex_.
  void mark_terminal(Ticket ticket, Record& record, JobState state,
                     Completions& completions);
  /// Builds the poll()-shaped status for a record.  Caller holds mutex_.
  [[nodiscard]] static JobStatus status_of(Ticket ticket,
                                           const Record& record);
  /// Nothing queued, nothing running, no pull task in flight.  Caller
  /// holds mutex_.
  [[nodiscard]] bool idle() const;
  /// Fires and clears the idle watchers when idle-or-stopping holds.
  /// Caller holds mutex_; call wherever done_cv_ gets notified.
  void fire_idle_watchers_if_idle();

  service::BatchEngine* engine_;
  const JobManagerOptions options_;
  /// Metrics live in the registry (one source of truth); stats() and
  /// drain() read the counters back.  All bumps happen under mutex_, so
  /// cross-counter sums stay consistent at quiescence.
  std::unique_ptr<util::MetricsRegistry> owned_metrics_;
  util::MetricsRegistry* metrics_;
  util::Counter* submitted_c_;
  util::Counter* done_c_;
  util::Counter* failed_c_;
  util::Counter* cancelled_c_;
  util::Counter* timed_out_c_;

  /// Pull tasks the engine pool can run at once.
  const std::size_t workers_;

  mutable std::mutex mutex_;
  /// Wakes the dispatcher: a deadline job arrived, resume, drain, stop.
  std::condition_variable dispatch_cv_;
  /// Any job reached a terminal state, or a pull task finished.
  std::condition_variable done_cv_;
  std::map<Ticket, Record> records_;
  /// Pending wait_async callbacks, fired (and erased) at the ticket's
  /// terminal transition or at stop().
  std::map<Ticket, std::vector<std::function<void(const JobStatus&)>>>
      waiters_;
  /// Pending notify_when_idle callbacks.
  std::vector<std::function<void()>> idle_watchers_;
  /// QUEUED jobs in dispatch order, each holding its job until a pull
  /// task moves it into the solve.
  std::map<QueueKey, service::SolveJob, QueueOrder> queue_;
  /// Terminal tickets in completion order — the eviction queue for
  /// max_retained_results.
  std::deque<Ticket> terminal_order_;
  Ticket next_ticket_ = 1;
  std::size_t running_count_ = 0;
  /// Pull tasks posted and not yet finished (stop() waits for 0).
  std::size_t pulls_ = 0;
  bool paused_ = false;
  bool draining_ = false;
  bool stopping_ = false;

  std::thread dispatcher_;  // last member: joins before state tears down
};

}  // namespace elpc::daemon
