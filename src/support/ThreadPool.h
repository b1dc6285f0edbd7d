//===- support/ThreadPool.h - Small fixed-size worker pool -----*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool for host-side background work; its one
/// user is the runtime's decode-ahead worker. Callers enqueue tasks and
/// wait for them to drain. Tasks must not throw.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SUPPORT_THREADPOOL_H
#define SQUASH_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vea {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers (0 means one per hardware thread; the
  /// pool always has at least one worker).
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task for execution on some worker.
  void enqueue(std::function<void()> Task);

  /// Blocks until every enqueued task has finished.
  void wait();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Tasks;
  std::mutex Mutex;
  std::condition_variable WakeWorker;
  std::condition_variable AllDone;
  size_t Running = 0;
  bool Stopping = false;
};

} // namespace vea

#endif // SQUASH_SUPPORT_THREADPOOL_H
