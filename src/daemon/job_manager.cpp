#include "daemon/job_manager.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace elpc::daemon {

namespace {

using service::unsolved_result;

/// Terminal state a finished solve maps to.
JobState state_of(const service::SolveResult& result) {
  if (result.error.empty()) {
    return JobState::kDone;
  }
  if (result.error == service::kCancelledError) {
    return JobState::kCancelled;
  }
  if (result.error == service::kTimedOutError) {
    return JobState::kTimedOut;
  }
  return JobState::kFailed;
}

}  // namespace

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

JobManager::JobManager(service::BatchEngine& engine,
                       JobManagerOptions options)
    : engine_(&engine),
      options_(options),
      owned_metrics_(options.metrics != nullptr
                         ? nullptr
                         : std::make_unique<util::MetricsRegistry>()),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      submitted_c_(&metrics_->counter("elpc_jobs_submitted_total",
                                      "Jobs admitted to the queue")),
      done_c_(&metrics_->counter("elpc_jobs_done_total",
                                 "Jobs that completed successfully")),
      failed_c_(&metrics_->counter("elpc_jobs_failed_total",
                                   "Jobs that reached the failed state")),
      cancelled_c_(&metrics_->counter("elpc_jobs_cancelled_total",
                                      "Jobs cancelled before completing")),
      timed_out_c_(&metrics_->counter("elpc_jobs_timed_out_total",
                                      "Jobs expired by their deadline")),
      workers_(engine.pool().worker_count()),
      paused_(options.start_paused),
      dispatcher_([this]() { dispatch_loop(); }) {}

JobManager::~JobManager() { stop(); }

Ticket JobManager::submit(service::SolveJob job, int priority) {
  Ticket ticket = 0;
  std::size_t pulls = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      throw std::runtime_error(
          "JobManager: draining — new submissions are rejected");
    }
    ticket = next_ticket_++;
    Record record;
    record.priority = priority;
    record.submitted_at = Clock::now();
    record.trace_id = job.trace_id;
    if (job.deadline_ms > 0) {
      // The budget starts at admission, so queue wait counts against it
      // — stricter than the engine's own solve-entry clock, and the
      // reason an overdue job can expire without ever running.
      record.deadline =
          util::saturating_add_ms(record.submitted_at, job.deadline_ms);
      record.has_deadline = true;
      // Only deadlines concern the dispatcher; an ordinary submit wakes
      // nobody but (at most) a pull task.
      dispatch_cv_.notify_one();
    }
    records_.emplace(ticket, std::move(record));
    queue_.emplace(QueueKey{priority, ticket}, std::move(job));
    submitted_c_->add();
    pulls = reserve_pulls();
  }
  post_pulls(pulls);
  return ticket;
}

JobStatus JobManager::status_of(Ticket ticket, const Record& record) {
  JobStatus status;
  status.ticket = ticket;
  status.state = record.state;
  status.priority = record.priority;
  status.trace_id = record.trace_id;
  status.result = record.result;
  return status;
}

void JobManager::run_completions(const Completions& completions) {
  for (const Completion& completion : completions) {
    for (const auto& callback : completion.callbacks) {
      // Callbacks run on pull tasks and the dispatcher, where an escaping
      // exception would end the process: log it and run the rest.
      try {
        callback(completion.status);
      } catch (const std::exception& e) {
        ELPC_LOG(util::LogLevel::kError)
            << "JobManager: completion callback for ticket "
            << completion.status.ticket << " threw: " << e.what();
      }
    }
  }
}

JobStatus JobManager::poll(Ticket ticket) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  return status_of(ticket, it->second);
}

JobStatus JobManager::wait(Ticket ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (records_.find(ticket) == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  // Re-find per wake: the retention cap may evict the record while this
  // thread sleeps, so a held iterator could dangle.  A stopped manager
  // will never run the remaining queue; return the non-terminal status
  // instead of blocking forever.
  done_cv_.wait(lock, [&]() {
    const auto it = records_.find(ticket);
    if (it == records_.end()) {
      return true;  // evicted — it was terminal
    }
    const JobState s = it->second.state;
    return s == JobState::kDone || s == JobState::kFailed ||
           s == JobState::kCancelled || s == JobState::kTimedOut ||
           stopping_;
  });
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range(
        "JobManager: ticket " + std::to_string(ticket) +
        " completed but its record was evicted (max_retained_results)");
  }
  JobStatus status = status_of(ticket, it->second);
  // Released by stop() with the job still pending: tell the caller the
  // state will never advance, so retrying wait() is pointless.
  status.shutting_down = stopping_ && !status.terminal();
  return status;
}

void JobManager::wait_async(Ticket ticket,
                            std::function<void(const JobStatus&)> callback) {
  JobStatus status;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(ticket);
    if (it == records_.end()) {
      throw std::out_of_range("JobManager: unknown ticket " +
                              std::to_string(ticket));
    }
    status = status_of(ticket, it->second);
    if (!status.terminal() && !stopping_) {
      waiters_[ticket].push_back(std::move(callback));
      return;
    }
    status.shutting_down = stopping_ && !status.terminal();
  }
  callback(status);  // inline: nothing left to wait for
}

bool JobManager::idle() const {
  return queue_.empty() && running_count_ == 0 && pulls_ == 0;
}

void JobManager::notify_when_idle(std::function<void()> callback) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (idle() || stopping_) {
    callback();
    return;
  }
  idle_watchers_.push_back(std::move(callback));
}

void JobManager::fire_idle_watchers_if_idle() {
  if (idle_watchers_.empty()) {
    return;
  }
  if (!idle() && !stopping_) {
    return;
  }
  // Steal the list first: a callback may re-register (a second drain
  // request) and must land on the fresh list, not the one being walked.
  std::vector<std::function<void()>> watchers;
  watchers.swap(idle_watchers_);
  for (const auto& watcher : watchers) {
    watcher();
  }
}

bool JobManager::cancel(Ticket ticket) {
  Completions completions;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = records_.find(ticket);
  if (it == records_.end()) {
    throw std::out_of_range("JobManager: unknown ticket " +
                            std::to_string(ticket));
  }
  Record& record = it->second;
  switch (record.state) {
    case JobState::kQueued: {
      const auto queued = queue_.find(QueueKey{record.priority, ticket});
      record.result =
          unsolved_result(queued->second, service::kCancelledError);
      queue_.erase(queued);
      record.cancel_requested = true;
      mark_terminal(ticket, record, JobState::kCancelled, completions);
      fire_idle_watchers_if_idle();
      done_cv_.notify_all();
      lock.unlock();
      run_completions(completions);
      return true;
    }
    case JobState::kRunning:
      record.cancel_requested = true;  // the solve polls it per DP column
      return true;
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
    case JobState::kTimedOut:
      return false;  // already terminal: cancellation is a no-op
  }
  return false;
}

void JobManager::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobManager::resume() {
  std::size_t pulls = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    dispatch_cv_.notify_one();
    pulls = reserve_pulls();
  }
  post_pulls(pulls);
}

JobManagerStats JobManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JobManagerStats stats;
  stats.submitted = submitted_c_->value();
  stats.paused = paused_;
  stats.queued = queue_.size();
  stats.running = running_count_;
  stats.done = done_c_->value();
  stats.failed = failed_c_->value();
  stats.cancelled = cancelled_c_->value();
  stats.timed_out = timed_out_c_->value();
  stats.draining = draining_;
  return stats;
}

JobManager::DrainBaseline JobManager::begin_drain(std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  // A paused manager would sit on its queue forever; draining means
  // "finish the work", so the gate lifts.
  paused_ = false;
  const bool bounded = timeout_ms > 0;
  if (bounded) {
    // The drain budget becomes a deadline on everything in flight or
    // still queued (tightening, never loosening, a job's own): when it
    // lapses, running solves abort per column and queued jobs expire.
    const Clock::time_point cutoff =
        util::saturating_add_ms(Clock::now(), timeout_ms);
    for (auto& [ticket, record] : records_) {
      if (record.state != JobState::kQueued &&
          record.state != JobState::kRunning) {
        continue;
      }
      if (!record.has_deadline || cutoff < record.deadline) {
        record.deadline = cutoff;
        record.has_deadline = true;
      }
    }
  }
  DrainBaseline baseline;
  baseline.done = done_c_->value();
  baseline.failed = failed_c_->value();
  baseline.cancelled = cancelled_c_->value();
  baseline.timed_out = timed_out_c_->value();
  dispatch_cv_.notify_all();
  const std::size_t pulls = reserve_pulls();
  lock.unlock();
  post_pulls(pulls);
  return baseline;
}

DrainReport JobManager::drain_progress(const DrainBaseline& baseline) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  DrainReport report;
  report.queued = queue_.size();
  report.running = running_count_;
  report.drained = queue_.empty() && running_count_ == 0;
  report.completed = (done_c_->value() - baseline.done) +
                     (failed_c_->value() - baseline.failed) +
                     (cancelled_c_->value() - baseline.cancelled);
  report.timed_out = timed_out_c_->value() - baseline.timed_out;
  return report;
}

DrainReport JobManager::drain(std::int64_t timeout_ms) {
  const bool bounded = timeout_ms > 0;
  const Clock::time_point cutoff =
      bounded ? util::saturating_add_ms(Clock::now(), timeout_ms)
              : Clock::time_point::max();
  const DrainBaseline baseline = begin_drain(timeout_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  const auto released = [this]() { return idle() || stopping_; };
  if (bounded) {
    // Grace beyond the cutoff: a job aborting AT the cutoff still needs
    // its next column probe to fire and its solve to unwind.  A solve
    // that ignores its abort probe leaves drained = false rather than
    // wedging the drain forever.
    done_cv_.wait_until(lock, util::saturating_add_ms(cutoff, 2000),
                        released);
  } else {
    done_cv_.wait(lock, released);
  }
  lock.unlock();
  return drain_progress(baseline);
}

bool JobManager::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void JobManager::stop() {
  Completions released;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    // Async waiters get the same release a blocked wait() does: the
    // current (possibly non-terminal) status with shutting_down set, so
    // the front end can answer instead of leaking the callback.
    for (auto& [ticket, callbacks] : waiters_) {
      const auto it = records_.find(ticket);
      if (it == records_.end()) {
        continue;  // unreachable: terminal records fired at eviction time
      }
      Completion& completion = released.emplace_back();
      completion.status = status_of(ticket, it->second);
      completion.status.shutting_down = !completion.status.terminal();
      completion.callbacks = std::move(callbacks);
    }
    waiters_.clear();
    fire_idle_watchers_if_idle();  // stopping_ counts as released
    dispatch_cv_.notify_all();
    done_cv_.notify_all();
  }
  run_completions(released);
  {
    // Running jobs finish; a pull task that has not started yet sees
    // stopping_ and ends at once.  Either way none may outlive this.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this]() { return pulls_ == 0; });
  }
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
}

std::size_t JobManager::reserve_pulls() {
  if (paused_ || stopping_) {
    return 0;
  }
  // Pull tasks not busy with a job will each take one from the queue (a
  // task past its solve re-checks the queue before ending), so post
  // only for the queued jobs they do not cover.
  std::size_t count = 0;
  while (pulls_ < workers_ && pulls_ - running_count_ < queue_.size()) {
    ++pulls_;
    ++count;
  }
  return count;
}

void JobManager::post_pulls(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    try {
      engine_->pool().post([this]() { pull(); });
    } catch (const std::exception&) {
      // The engine's pool is shutting down (the engine must outlive the
      // manager, so only in teardown): give the unposted tokens back.
      const std::lock_guard<std::mutex> lock(mutex_);
      pulls_ -= count - i;
      fire_idle_watchers_if_idle();
      done_cv_.notify_all();
      return;
    }
  }
}

service::JobSignal JobManager::signal_of(const Record& record) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (record.cancel_requested) {
    return service::JobSignal::kCancel;
  }
  if (record.has_deadline && Clock::now() >= record.deadline) {
    return service::JobSignal::kTimeout;
  }
  return service::JobSignal::kNone;
}

void JobManager::pull() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!stopping_ && !paused_ && !queue_.empty()) {
    auto node = queue_.extract(queue_.begin());
    const Ticket ticket = node.key().ticket;
    // Records are map nodes and a running one is never evicted, so the
    // reference stays valid while the lock is released.
    Record& record = records_.at(ticket);
    record.state = JobState::kRunning;
    record.dispatched_at = Clock::now();
    record.dispatched = true;
    ++running_count_;
    lock.unlock();

    // The solve runs outside the manager mutex: poll/submit/cancel stay
    // responsive.  The signal re-takes it per check — uncontended in the
    // common case.  The deadline here (submission clock) is stricter
    // than the engine's own solve-entry clock and therefore fires first.
    service::SolveResult result;
    try {
      result = engine_->solve_job(
          std::move(node.mapped()),
          [this, &record](std::size_t) { return signal_of(record); });
    } catch (const std::exception& e) {
      // solve_job captures every per-job failure in the result; only
      // resource exhaustion outside the solver lands here.
      result.error = e.what();
      result.result = mapping::MapResult::infeasible(result.error);
    }

    Completions completions;
    lock.lock();
    --running_count_;
    record.result = std::move(result);
    mark_terminal(ticket, record, state_of(record.result), completions);
    const bool others_solving = running_count_ > 0;
    done_cv_.notify_all();
    lock.unlock();
    run_completions(completions);
    if (others_solving) {
      // When the scheduler stacks two solving workers on one CPU, each
      // otherwise holds the other's job for a whole time slice (job p99
      // 8.9 ms against 5.9 ms for batch dispatch, measured with both
      // workers pinned to one CPU).  Yielding here makes them alternate
      // per job instead.  A lone worker never yields: handing the IO
      // thread a whole slice after every short job multiplied small-job
      // p99 by five.
      std::this_thread::yield();
    }
    lock.lock();
    if (!stopping_ && !paused_ && !queue_.empty()) {
      // Re-post rather than loop: tasks queued on the pool meanwhile (a
      // subscription re-solve) run before this worker's next job.
      lock.unlock();
      post_pulls(1);
      return;
    }
  }
  --pulls_;
  fire_idle_watchers_if_idle();
  done_cv_.notify_all();
}

void JobManager::mark_terminal(Ticket ticket, Record& record,
                               JobState state, Completions& completions) {
  record.state = state;
  switch (state) {
    case JobState::kDone:
      done_c_->add();
      break;
    case JobState::kFailed:
      failed_c_->add();
      break;
    case JobState::kCancelled:
      cancelled_c_->add();
      break;
    case JobState::kTimedOut:
      timed_out_c_->add();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // not terminal; callers never pass these
  }
  // The ticket's trace span: assembled here because every terminal
  // transition passes through, whatever path took it there.
  const Clock::time_point now = Clock::now();
  const service::SolveResult& result = record.result;
  TraceSpan span;
  span.ticket = ticket;
  span.job_id = result.job_id;
  span.trace_id = record.trace_id;
  span.state = job_state_name(state);
  span.objective = result.objective == service::Objective::kMinDelay
                       ? "delay"
                       : "framerate";
  span.kernel = result.kernel.empty() ? "none" : result.kernel;
  span.incremental = result.incremental;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  // A never-dispatched job's whole lifetime is queue wait.
  span.queue_wait_ms =
      ms((record.dispatched ? record.dispatched_at : now) -
         record.submitted_at);
  span.solve_ms = result.mean_runtime_ms;
  span.e2e_ms = ms(now - record.submitted_at);
  span.dp_columns = result.dp_columns;
  span.columns_total = result.columns_total;
  span.columns_reused = result.columns_reused;
  span.completed_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  // Terminal instant on the profiler's clock, so the exporter can place
  // this span on the same timeline as the phase events it parents.
  span.end_mono_ns = util::monotonic_ns();
  const util::MetricLabels labels{
      {"kernel", span.kernel},
      {"objective", span.objective},
      {"incremental", span.incremental ? "1" : "0"}};
  metrics_
      ->histogram("elpc_queue_wait_ms",
                  "Submission to dispatch (ms), by kernel x objective x "
                  "incremental",
                  labels)
      .record(span.queue_wait_ms);
  metrics_
      ->histogram("elpc_e2e_ms",
                  "Submission to terminal state (ms), by kernel x objective "
                  "x incremental",
                  labels)
      .record(span.e2e_ms);
  if (options_.slowlog != nullptr && options_.slow_ms > 0 &&
      span.e2e_ms >= static_cast<double>(options_.slow_ms)) {
    options_.slowlog->add(span);
  }
  if (options_.tracelog != nullptr) {
    options_.tracelog->add(span);  // every terminal span, fast or slow
  }
  // The callbacks leave with a copy of the status, taken before the
  // eviction sweep below could drop this (or any) record.
  const auto waiters = waiters_.find(ticket);
  if (waiters != waiters_.end()) {
    Completion& completion = completions.emplace_back();
    completion.status = status_of(ticket, record);
    completion.callbacks = std::move(waiters->second);
    waiters_.erase(waiters);
  }
  terminal_order_.push_back(ticket);
  if (options_.max_retained_results > 0) {
    while (terminal_order_.size() > options_.max_retained_results) {
      records_.erase(terminal_order_.front());
      terminal_order_.pop_front();
    }
  }
}

bool JobManager::expire_overdue_queued(Completions& completions) {
  const Clock::time_point now = Clock::now();
  bool any = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const Ticket ticket = it->first.ticket;
    Record& record = records_.at(ticket);
    if (record.has_deadline && record.deadline <= now) {
      record.result = unsolved_result(it->second, service::kTimedOutError);
      it = queue_.erase(it);
      mark_terminal(ticket, record, JobState::kTimedOut, completions);
      any = true;
    } else {
      ++it;
    }
  }
  return any;
}

JobManager::Clock::time_point JobManager::earliest_queued_deadline() const {
  Clock::time_point earliest = Clock::time_point::max();
  for (const auto& [key, job] : queue_) {
    const Record& record = records_.at(key.ticket);
    if (record.has_deadline && record.deadline < earliest) {
      earliest = record.deadline;
    }
  }
  return earliest;
}

void JobManager::dispatch_loop() {
  // Deadlines only: jobs are dispatched by pull tasks on the engine's
  // pool, so this thread wakes for a deadline job's arrival, its expiry,
  // resume/drain (which may tighten deadlines) and stop.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // Overdue queued jobs expire here regardless of the pause gate: a
    // paused (or busy) manager must not hold a deadline job in limbo
    // past its budget.
    Completions completions;
    if (expire_overdue_queued(completions)) {
      fire_idle_watchers_if_idle();
      done_cv_.notify_all();
      lock.unlock();
      run_completions(completions);
      lock.lock();
      continue;
    }
    const Clock::time_point next = earliest_queued_deadline();
    if (next == Clock::time_point::max()) {
      dispatch_cv_.wait(lock);
    } else {
      dispatch_cv_.wait_until(lock, next);
    }
  }
}

}  // namespace elpc::daemon
