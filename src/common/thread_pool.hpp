// Work-stealing thread pool shared by the scenario sweep and the fleet drive.
//
// Each worker owns a deque: it pops work from the front of its own queue and,
// when empty, steals from the back of a sibling's queue. Submitted tasks are
// spread round-robin across workers. Determinism is the caller's job: tasks
// must write to disjoint result slots, so the schedule (which worker runs
// what, in what order) cannot influence the reduced output.
//
// parallel_for is the fork-join primitive on top. Each call is its own
// group, with its own completion latch and exception slot, so two groups in
// flight at once (two fleet cells of one sweep) never see each other's
// completion or failure. It may be called from inside a pool task: the
// calling worker then claims indices of its own group instead of blocking,
// so nesting cannot deadlock, even on a one-worker pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tscclock {

class ThreadPool {
 public:
  /// `threads` = 0 selects one thread per CPU in the calling thread's
  /// affinity mask, as `nproc` counts them (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Safe to call from any thread, including from inside
  /// a running task (nested submissions go to the submitting worker's own
  /// queue, front position, for cache locality).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing. If any task
  /// threw, the first captured exception is rethrown here (the remaining
  /// tasks still ran to completion); a worker never dies on a throwing task.
  /// parallel_for groups report their failures to their own caller, never
  /// here.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  struct Worker {
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
  };

  friend void parallel_for(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  void worker_loop(std::size_t self);
  bool try_pop_own(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);
  /// True on one of this pool's worker threads.
  [[nodiscard]] bool on_worker_thread() const;
  /// Workers asleep for lack of queued tasks right now.
  [[nodiscard]] std::size_t idle_workers();

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t pending_ = 0;  ///< submitted but not yet completed
  /// Pushed but not yet popped. Workers sleep on `queued_ > 0` under
  /// state_mutex_, so a submit between a worker's empty-queue scan and its
  /// wait is never missed. A pop can land before the matching submit's
  /// increment, so the count may dip below zero for a moment.
  std::ptrdiff_t queued_ = 0;
  std::size_t idle_ = 0;  ///< workers waiting on work_available_
  std::size_t next_queue_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;  ///< first task exception, for wait_idle
};

/// Run `fn(i)` for every i in [0, n) on `pool`, blocking until all complete.
/// `fn` must confine writes to slot i. Every index runs even when some
/// throw; afterwards the exception of the lowest throwing index is rethrown,
/// so the error a caller sees does not depend on the schedule. Callable from
/// inside a task of the same pool (the caller then runs indices itself).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace tscclock
