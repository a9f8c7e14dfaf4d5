#include "daemon/job_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "pipeline/generator.hpp"
#include "service/batch_engine.hpp"
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

std::vector<service::SolveJob> make_jobs(std::size_t n) {
  std::vector<service::SolveJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(make_job("job" + std::to_string(i), 100 + i,
                            i % 2 == 0 ? service::Objective::kMinDelay
                                       : service::Objective::kMaxFrameRate));
  }
  return jobs;
}

/// Holds every job whose id starts with "held" inside the mapper
/// factory until open() — a long solve under the test's control.
class FactoryGate {
 public:
  [[nodiscard]] service::MapperFactory factory() {
    return [this](const service::SolveJob& job,
                  const service::MapperContext& ctx) {
      if (job.id.rfind("held", 0) == 0) {
        std::unique_lock<std::mutex> lock(mutex_);
        ++entered_;
        cv_.notify_all();
        cv_.wait(lock, [this]() { return open_; });
      }
      return service::make_engine_elpc(ctx);
    };
  }
  /// Blocks until `count` held jobs reached the factory.
  void wait_entered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, count]() { return entered_ >= count; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

/// wait_async delivered into a future, so a test can bound its wait.
std::future<JobStatus> async_status(JobManager& manager, Ticket ticket) {
  auto promise = std::make_shared<std::promise<JobStatus>>();
  std::future<JobStatus> future = promise->get_future();
  manager.wait_async(ticket, [promise](const JobStatus& status) {
    promise->set_value(status);
  });
  return future;
}

constexpr auto kBound = std::chrono::seconds(10);

TEST(JobManager, AsyncResultsBitIdenticalToDirectSolve) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  const std::vector<service::SolveJob> jobs = make_jobs(6);
  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : jobs) {
    tickets.push_back(manager.submit(job));
  }

  service::BatchEngine direct;
  direct.register_network("net", make_network(3));
  const std::vector<service::SolveResult> expected = direct.solve(jobs);

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const JobStatus status = manager.wait(tickets[i]);
    EXPECT_EQ(status.state, JobState::kDone);
    EXPECT_TRUE(status.result.error.empty()) << status.result.error;
    // The manager adds scheduling, never configuration: same kernels,
    // same inputs, bit-identical outputs.
    EXPECT_EQ(status.result.result.seconds, expected[i].result.seconds)
        << jobs[i].id;
    EXPECT_EQ(status.result.result.mapping, expected[i].result.mapping)
        << jobs[i].id;
  }
}

TEST(JobManager, DispatchFollowsPriorityThenSubmissionOrder) {
  // Record the order jobs reach the mapper factory.  A 1-thread engine
  // runs one pull task at a time, so the recorded order is the
  // scheduling order; start_paused lets all submissions queue first.
  std::mutex order_mutex;
  std::vector<std::string> order;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.factory = [&order, &order_mutex](
                               const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(job.id);
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));

  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(4);
  std::vector<Ticket> tickets;
  tickets.push_back(manager.submit(jobs[0], /*priority=*/0));
  tickets.push_back(manager.submit(jobs[1], /*priority=*/5));
  tickets.push_back(manager.submit(jobs[2], /*priority=*/5));
  tickets.push_back(manager.submit(jobs[3], /*priority=*/1));
  EXPECT_EQ(manager.stats().queued, 4u);

  manager.resume();
  for (const Ticket ticket : tickets) {
    (void)manager.wait(ticket);
  }
  // Highest priority first; FIFO between the two priority-5 jobs.
  const std::vector<std::string> expected = {"job1", "job2", "job3", "job0"};
  EXPECT_EQ(order, expected);
}

TEST(JobManager, CancelQueuedRemovesJobBeforeItEverRuns) {
  std::mutex seen_mutex;
  std::vector<std::string> seen;
  service::BatchEngineOptions engine_options;
  engine_options.factory = [&seen, &seen_mutex](
                               const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(job.id);
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(3);
  const Ticket keep1 = manager.submit(jobs[0]);
  const Ticket victim = manager.submit(jobs[1]);
  const Ticket keep2 = manager.submit(jobs[2]);

  EXPECT_TRUE(manager.cancel(victim));
  const JobStatus cancelled = manager.poll(victim);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.result.error, service::kCancelledError);

  manager.resume();
  EXPECT_EQ(manager.wait(keep1).state, JobState::kDone);
  EXPECT_EQ(manager.wait(keep2).state, JobState::kDone);
  EXPECT_EQ(seen.size(), 2u);  // the cancelled job never reached a mapper
  // Cancelling an already-cancelled job is a no-op.
  EXPECT_FALSE(manager.cancel(victim));
}

TEST(JobManager, CancelAfterCompletionIsNoOp) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  const Ticket ticket =
      manager.submit(make_job("j", 7, service::Objective::kMinDelay));
  const JobStatus done = manager.wait(ticket);
  ASSERT_EQ(done.state, JobState::kDone);

  EXPECT_FALSE(manager.cancel(ticket));
  // The completed result is untouched by the attempted cancellation.
  const JobStatus after = manager.poll(ticket);
  EXPECT_EQ(after.state, JobState::kDone);
  EXPECT_EQ(after.result.result.seconds, done.result.result.seconds);
}

TEST(JobManager, UnknownTicketIsAnErrorNotACrash) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);
  EXPECT_THROW((void)manager.poll(999), std::out_of_range);
  EXPECT_THROW((void)manager.cancel(999), std::out_of_range);
  EXPECT_THROW((void)manager.wait(999), std::out_of_range);
}

TEST(JobManager, BatchLevelRejectionFailsTheJobNotTheDaemon) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  service::SolveJob stray = make_job("stray", 7,
                                     service::Objective::kMinDelay);
  stray.network = "unregistered";
  const Ticket bad = manager.submit(stray);
  const JobStatus failed = manager.wait(bad);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.result.error.find("unregistered"), std::string::npos);

  // The manager keeps serving after the failure.
  const Ticket good =
      manager.submit(make_job("ok", 8, service::Objective::kMinDelay));
  EXPECT_EQ(manager.wait(good).state, JobState::kDone);
}

TEST(JobManager, RetentionCapEvictsOldestTerminalRecords) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.max_retained_results = 3;
  JobManager manager(engine, manager_options);

  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : make_jobs(6)) {
    const Ticket ticket = manager.submit(job);
    (void)manager.wait(ticket);  // serialize: completion order == ticket order
    tickets.push_back(ticket);
  }

  // Cumulative counters survive eviction; records are capped.
  EXPECT_EQ(manager.stats().done, 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_THROW((void)manager.poll(tickets[i]), std::out_of_range);
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(manager.poll(tickets[i]).state, JobState::kDone);
  }
}

TEST(JobManager, StatsTrackStates) {
  service::BatchEngine engine;
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  const std::vector<service::SolveJob> jobs = make_jobs(3);
  std::vector<Ticket> tickets;
  for (const service::SolveJob& job : jobs) {
    tickets.push_back(manager.submit(job));
  }
  EXPECT_TRUE(manager.cancel(tickets[0]));
  JobManagerStats stats = manager.stats();
  EXPECT_TRUE(stats.paused);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.cancelled, 1u);

  manager.resume();
  (void)manager.wait(tickets[1]);
  (void)manager.wait(tickets[2]);
  stats = manager.stats();
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_FALSE(stats.paused);
}

TEST(JobManager, ShortJobFinishesWhileALongOneIsHeld) {
  // Per-job dispatch: each job is answered when its own solve ends.  On
  // a 2-thread engine a short job queued behind a long one runs on the
  // other worker and reaches done while the long one is still held.
  FactoryGate gate;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 2;
  engine_options.factory = gate.factory();
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  const Ticket held =
      manager.submit(make_job("held", 7, service::Objective::kMaxFrameRate));
  gate.wait_entered(1);
  const Ticket quick =
      manager.submit(make_job("quick", 8, service::Objective::kMinDelay));
  std::future<JobStatus> quick_done = async_status(manager, quick);
  ASSERT_EQ(quick_done.wait_for(kBound), std::future_status::ready);
  EXPECT_EQ(quick_done.get().state, JobState::kDone);
  EXPECT_EQ(manager.poll(held).state, JobState::kRunning);

  gate.open();
  EXPECT_EQ(manager.wait(held).state, JobState::kDone);
}

TEST(JobManager, DrainReturnsOnlyAfterEveryCompletionRan) {
  // Callbacks run after the manager mutex is released, still on the
  // pull task; drain() must not report idle while one is mid-flight.
  service::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManagerOptions manager_options;
  manager_options.start_paused = true;
  JobManager manager(engine, manager_options);

  std::atomic<int> finished{0};
  for (const service::SolveJob& job : make_jobs(3)) {
    manager.wait_async(manager.submit(job), [&finished](const JobStatus&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  }
  const DrainReport report = manager.drain(0);  // lifts the pause
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(finished.load(), 3);
}

TEST(JobManager, StopWaitsForThePullTaskItInterrupts) {
  // stop() lets the running job finish and leaves the queue QUEUED; it
  // may not return while a pull task still touches the manager, so the
  // manager can be destroyed at once and the engine pool reused.
  FactoryGate gate;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.factory = gate.factory();
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  auto manager = std::make_unique<JobManager>(engine);

  const Ticket held =
      manager->submit(make_job("held", 7, service::Objective::kMinDelay));
  const Ticket queued =
      manager->submit(make_job("next", 8, service::Objective::kMinDelay));
  gate.wait_entered(1);
  std::atomic<int> released{0};
  for (const Ticket ticket : {held, queued}) {
    manager->wait_async(ticket, [&released](const JobStatus& status) {
      EXPECT_TRUE(status.shutting_down);
      released.fetch_add(1);
    });
  }

  std::atomic<bool> stopped{false};
  std::thread stopper([&]() {
    manager->stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "stop() returned under a running job";
  EXPECT_EQ(released.load(), 2);  // waiters released with shutting_down
  gate.open();
  stopper.join();

  EXPECT_EQ(manager->poll(held).state, JobState::kDone);
  EXPECT_EQ(manager->poll(queued).state, JobState::kQueued);
  EXPECT_EQ(manager->stats().running, 0u);
  manager.reset();
  // No pull task outlived its manager: the pool serves a batch normally.
  EXPECT_EQ(engine.solve(make_jobs(2)).size(), 2u);
}

TEST(JobManager, ResolveInterleavesWithAJobStream) {
  // A pull task re-posts itself rather than looping, so a subscription
  // re-solve queued on the same pool runs between two jobs of a stream
  // instead of after the whole queue.
  std::atomic<int> stream_solves{0};
  service::BatchEngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.factory = [&stream_solves](
                               const service::SolveJob& job,
                               const service::MapperContext& ctx) {
    if (job.id.rfind("stream", 0) == 0) {
      stream_solves.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    return service::make_engine_elpc(ctx);
  };
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  service::SolveJob subscription =
      make_job("sub", 9, service::Objective::kMaxFrameRate);
  subscription.resolve_on_update = true;
  ASSERT_EQ(manager.wait(manager.submit(subscription)).state,
            JobState::kDone);

  constexpr int kStream = 60;
  for (int i = 0; i < kStream; ++i) {
    (void)manager.submit(make_job("stream" + std::to_string(i), 200 + i,
                                  service::Objective::kMinDelay));
  }
  while (stream_solves.load() == 0) {
    std::this_thread::yield();
  }
  const graph::Edge edge = make_network(3).out_edges(0).front();
  const std::vector<graph::LinkUpdate> updates = {graph::LinkUpdate{
      edge.from, edge.to,
      graph::LinkAttr{edge.attr.bandwidth_mbps * 0.5, edge.attr.min_delay_s}}};
  const std::vector<service::SolveResult> resolved =
      engine.apply_link_updates("net", updates);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_TRUE(resolved[0].error.empty()) << resolved[0].error;
  EXPECT_EQ(resolved[0].network_revision, 1u);
  // The stream is far from done: the re-solve did not wait it out.
  EXPECT_GT(manager.stats().queued, 0u);
  EXPECT_LT(stream_solves.load(), kStream);
}

TEST(JobManager, CancelDeadlineAndPauseActPerJob) {
  FactoryGate gate;
  service::BatchEngineOptions engine_options;
  engine_options.threads = 2;
  engine_options.factory = gate.factory();
  service::BatchEngine engine(engine_options);
  engine.register_network("net", make_network(3));
  JobManager manager(engine);

  // Both workers hold a job.  One is cancelled mid-solve (its per-column
  // probe stops it once released); the other runs to done.
  const Ticket victim =
      manager.submit(make_job("held-a", 7, service::Objective::kMaxFrameRate));
  const Ticket survivor =
      manager.submit(make_job("held-b", 8, service::Objective::kMaxFrameRate));
  gate.wait_entered(2);
  EXPECT_TRUE(manager.cancel(victim));

  // With both workers busy, a queued deadline job expires on its own
  // while the held jobs are untouched.
  service::SolveJob hurried = make_job("hurried", 9,
                                       service::Objective::kMinDelay);
  hurried.deadline_ms = 20;
  std::future<JobStatus> expired = async_status(manager, manager.submit(hurried));
  ASSERT_EQ(expired.wait_for(kBound), std::future_status::ready);
  EXPECT_EQ(expired.get().state, JobState::kTimedOut);
  EXPECT_EQ(manager.poll(survivor).state, JobState::kRunning);

  // Pausing stops the next job from starting, not the running ones.
  manager.pause();
  const Ticket parked =
      manager.submit(make_job("parked", 10, service::Objective::kMinDelay));
  gate.open();
  EXPECT_EQ(manager.wait(victim).state, JobState::kCancelled);
  EXPECT_EQ(manager.wait(survivor).state, JobState::kDone);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(manager.poll(parked).state, JobState::kQueued);
  manager.resume();
  EXPECT_EQ(manager.wait(parked).state, JobState::kDone);
}

}  // namespace
}  // namespace elpc::daemon
