//===- support/ThreadPool.cpp - Small fixed-size worker pool --------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace vea;

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorker.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Tasks.push(std::move(Task));
  }
  WakeWorker.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Tasks.empty() && Running == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorker.wait(Lock, [this] { return Stopping || !Tasks.empty(); });
      if (Tasks.empty())
        return; // Stopping and drained.
      Task = std::move(Tasks.front());
      Tasks.pop();
      ++Running;
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --Running;
      if (Tasks.empty() && Running == 0)
        AllDone.notify_all();
    }
  }
}
