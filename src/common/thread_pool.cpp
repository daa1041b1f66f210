#include "common/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

namespace tscclock {

namespace {

/// Identifies the pool worker executing on this thread (nullptr elsewhere),
/// so nested submissions can target the submitter's own queue.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity t_worker;

/// One parallel_for call. The range is cut into one contiguous block per
/// worker: a worker first claims the indices of its own block, then those
/// left in the others. Repeated calls over the same range (a fleet drive's
/// epochs) thus keep each index, and its neighbours, on one core while
/// every worker takes part, and still finish when some workers are busy
/// elsewhere. Shared-owned by the helper tasks, so one that starts after
/// the call returned finds nothing left to claim and exits without
/// touching `fn`.
struct ForGroup {
  ForGroup(std::size_t count, std::size_t block_count,
           const std::function<void(std::size_t)>& body)
      : n(count),
        blocks(block_count),
        fn(&body),
        claimed(std::make_unique<std::atomic<std::size_t>[]>(block_count)) {}

  const std::size_t n;
  const std::size_t blocks;
  /// Valid until the call returns, which is after every claimed index ran.
  const std::function<void(std::size_t)>* fn;
  /// Indices claimed so far from each block.
  std::unique_ptr<std::atomic<std::size_t>[]> claimed;

  std::mutex mutex;
  std::condition_variable finished;
  std::size_t done = 0;
  std::exception_ptr error;  ///< the lowest throwing index's exception
  std::size_t error_index = 0;

  /// Claim and run indices until none are left, own block first.
  void drain(std::size_t self) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t block = (self + b) % blocks;
      const std::size_t begin = block * n / blocks;
      const std::size_t end = (block + 1) * n / blocks;
      for (;;) {
        const std::size_t i = begin + claimed[block].fetch_add(1);
        if (i >= end) break;
        run(i);
      }
    }
  }

  void run(std::size_t i) {
    std::exception_ptr thrown;
    try {
      (*fn)(i);
    } catch (...) {
      thrown = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (thrown && (!error || i < error_index)) {
      error = std::move(thrown);
      error_index = i;
    }
    if (++done == n) finished.notify_all();
  }
};

/// CPUs the calling thread may run on, as `nproc` counts them: the
/// affinity mask honours taskset and cpusets, which
/// hardware_concurrency() ignores. Falls back to the latter if the mask
/// cannot be read.
std::size_t available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = available_cpus();
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<Worker>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker.pool == this; }

std::size_t ThreadPool::idle_workers() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return idle_;
}

void ThreadPool::submit(std::function<void()> task) {
  const bool from_worker = on_worker_thread();
  std::size_t target = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++pending_;
    target = from_worker ? t_worker.index : next_queue_++ % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    if (from_worker) {
      queues_[target]->queue.push_front(std::move(task));
    } else {
      queues_[target]->queue.push_back(std::move(task));
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++queued_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  all_idle_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool ThreadPool::try_pop_own(std::size_t self, std::function<void()>& task) {
  auto& worker = *queues_[self];
  std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.queue.empty()) return false;
  task = std::move(worker.queue.front());
  worker.queue.pop_front();
  return true;
}

bool ThreadPool::try_steal(std::size_t self, std::function<void()>& task) {
  // Scan siblings starting just after ourselves so steals spread out instead
  // of all hammering queue 0.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    auto& victim = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.queue.empty()) continue;
    task = std::move(victim.queue.back());
    victim.queue.pop_back();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker = {this, self};
  for (;;) {
    std::function<void()> task;
    if (!try_pop_own(self, task) && !try_steal(self, task)) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      ++idle_;
      work_available_.wait(lock, [this] {
        return queued_ > 0 || (shutdown_ && pending_ == 0);
      });
      --idle_;
      if (queued_ <= 0) return;  // shut down with nothing left to run
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      --queued_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      --pending_;
      if (pending_ == 0) {
        all_idle_.notify_all();
        if (shutdown_) work_available_.notify_all();
      }
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto group = std::make_shared<ForGroup>(n, pool.thread_count(), fn);
  // A worker caller runs indices itself and asks only the idle workers for
  // help: a busy worker would pick the helper up after the group is done.
  // Any other caller blocks, so the pool's workers do all the work.
  const bool nested = pool.on_worker_thread();
  const std::size_t helpers =
      nested ? std::min(n - 1, pool.idle_workers())
             : std::min(n, pool.thread_count());
  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit([group] { group->drain(t_worker.index); });
  if (nested) group->drain(t_worker.index);

  std::unique_lock<std::mutex> lock(group->mutex);
  group->finished.wait(lock, [&] { return group->done == n; });
  if (group->error) {
    std::exception_ptr error = group->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace tscclock
