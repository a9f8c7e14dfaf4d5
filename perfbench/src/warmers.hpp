#pragma once
// CPU warmers: a child process that keeps every CPU busy at the lowest
// scheduling class (SCHED_IDLE) while the benchmark runs.
//
// On a virtual machine an idle vCPU halts, and waking it costs a trip
// through the hypervisor's scheduler.  The daemon hands every job across
// several threads (IO worker, dispatcher, engine pool, load generator),
// so with halting vCPUs a job's latency measures the hypervisor, and it
// moves by integer factors with the host's load.  Spinning SCHED_IDLE
// threads keep each vCPU running without taking CPU from any runnable
// thread of the benchmark (any other thread preempts them at once) — the
// software form of disabling deep idle states.  They run in a separate
// process, so the benchmark's own CPU time and RSS exclude them.

#include <sys/types.h>

namespace perfbench {

class Warmers {
 public:
  /// Forks the warmer process (call before starting any thread).  The
  /// child dies with its parent, and at the latest on destruction.
  Warmers();
  ~Warmers();

  Warmers(const Warmers&) = delete;
  Warmers& operator=(const Warmers&) = delete;

 private:
  pid_t child_ = -1;
};

}  // namespace perfbench
