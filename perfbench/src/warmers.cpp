#include "warmers.hpp"

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::atomic<unsigned long> sink{0};

[[noreturn]] void warm(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  const sched_param param{};
  (void)::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
  // A plain loop, no PAUSE: a pause loop invites the hypervisor's
  // pause-loop exiting to deschedule the vCPU, the very thing avoided.
  for (unsigned long i = 0;; ++i) {
    if ((i & 0xffffff) == 0) {
      sink.store(i, std::memory_order_relaxed);
    }
  }
}

}  // namespace

Warmers::Warmers() {
  const pid_t parent = ::getpid();
  child_ = ::fork();
  if (child_ != 0) {
    return;  // parent (or fork failed: run without warmers)
  }
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) {
    ::_exit(0);
  }
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<std::thread> threads;
  for (long c = 1; c < cpus; ++c) {
    threads.emplace_back(warm, static_cast<int>(c));
  }
  warm(0);
}

Warmers::~Warmers() {
  if (child_ > 0) {
    ::kill(child_, SIGKILL);
    int status = 0;
    (void)::waitpid(child_, &status, 0);
  }
}

}  // namespace perfbench
