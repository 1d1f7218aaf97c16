#include "net/executor.h"

#include <vector>

namespace clog {
namespace {

/// The worker currently executing on this thread, if any. Lets Run()
/// detect node-thread senders (reentrant wait) and self-sends (inline).
thread_local ThreadPerNodeExecutor* t_owner = nullptr;
thread_local void* t_worker = nullptr;

}  // namespace

ThreadPerNodeExecutor::ThreadPerNodeExecutor(std::size_t mailbox_capacity)
    : capacity_(mailbox_capacity == 0 ? 1 : mailbox_capacity) {}

ThreadPerNodeExecutor::~ThreadPerNodeExecutor() { StopAll(); }

ThreadPerNodeExecutor::Worker* ThreadPerNodeExecutor::FindWorker(NodeId id) {
  std::lock_guard<std::mutex> lk(registry_mu_);
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.get();
}

void ThreadPerNodeExecutor::StartNode(NodeId id) {
  Worker* w = nullptr;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    auto& slot = workers_[id];
    if (slot == nullptr) {
      slot = std::make_unique<Worker>();
      slot->id = id;
    }
    w = slot.get();
  }
  std::lock_guard<std::mutex> lk(w->mu);
  if (w->running) return;
  if (w->thread.joinable()) w->thread.join();  // Reap a stopped worker.
  w->running = true;
  w->stopping = false;
  w->thread = std::thread([this, w] { WorkerLoop(w); });
}

void ThreadPerNodeExecutor::StopLocked(Worker* w) {
  w->stopping = true;
  w->cv.notify_all();
  w->not_full.notify_all();
}

void ThreadPerNodeExecutor::StopNode(NodeId id) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return;
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lk(w->mu);
    if (!w->running && !w->thread.joinable()) return;
    StopLocked(w);
    to_join = std::move(w->thread);
  }
  if (to_join.joinable()) to_join.join();
  // The worker is gone; reject everything it never got to.
  std::deque<Call*> orphans;
  {
    std::lock_guard<std::mutex> lk(w->mu);
    orphans.swap(w->mailbox);
    w->running = false;
  }
  for (Call* c : orphans) FinishCall(c, /*rejected=*/true);
}

void ThreadPerNodeExecutor::StopAll() {
  std::vector<NodeId> ids;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    for (const auto& [id, _] : workers_) ids.push_back(id);
  }
  for (NodeId id : ids) StopNode(id);
}

void ThreadPerNodeExecutor::Execute(Call* c) {
  (*c->fn)();
  FinishCall(c, /*rejected=*/false);
}

ThreadPerNodeExecutor::Call* ThreadPerNodeExecutor::PopLocked(Worker* w) {
  Call* c = w->mailbox.front();
  w->mailbox.pop_front();
  w->not_full.notify_all();
  return c;
}

void ThreadPerNodeExecutor::FinishCall(Call* c, bool rejected) {
  // The waiter owns the Call (it lives on Run's stack) and may destroy it
  // the instant it observes the flag, so the flag must be set — and the
  // notify issued — under the mutex the waiter's predicate runs under.
  // The waiter can then only observe-and-destroy after this unlocks.
  std::atomic<bool>& flag = rejected ? c->rejected : c->done;
  if (Worker* home = c->home; home != nullptr) {
    std::lock_guard<std::mutex> lk(home->mu);
    flag.store(true);
    home->cv.notify_all();
  } else {
    std::lock_guard<std::mutex> lk(c->mu);
    flag.store(true);
    c->cv.notify_all();
  }
}

void ThreadPerNodeExecutor::WorkerLoop(Worker* w) {
  t_owner = this;
  t_worker = w;
  for (;;) {
    Call* c = nullptr;
    {
      std::unique_lock<std::mutex> lk(w->mu);
      w->cv.wait(lk, [&] { return w->stopping || !w->mailbox.empty(); });
      if (w->stopping) break;
      c = PopLocked(w);
    }
    Execute(c);
  }
  t_owner = nullptr;
  t_worker = nullptr;
}

bool ThreadPerNodeExecutor::Run(NodeId id, const Task& fn) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return false;
  Worker* home = t_owner == this ? static_cast<Worker*>(t_worker) : nullptr;
  if (home == w) {
    // Self-send from the node's own thread: run inline, like the
    // simulation does. (Enqueue-and-drain would also work via the
    // reentrant wait below, but inline keeps self-RPCs cheap.)
    fn();
    return true;
  }

  Call call;
  call.fn = &fn;
  call.home = home;
  {
    std::unique_lock<std::mutex> lk(w->mu);
    w->not_full.wait(lk, [&] {
      return w->stopping || !w->running || w->mailbox.size() < capacity_;
    });
    if (w->stopping || !w->running) return false;
    w->mailbox.push_back(&call);
    w->cv.notify_all();
  }

  if (home == nullptr) {
    // External thread (test driver, bench producer): plain blocking wait.
    std::unique_lock<std::mutex> lk(call.mu);
    call.cv.wait(lk, [&] { return call.done.load() || call.rejected.load(); });
  } else {
    // Node thread awaiting a reply: drain our own mailbox while we wait so
    // a remote handler can call back into us (A -> B -> A) without
    // deadlock — the nested work runs on this thread, preserving the
    // simulation's synchronous recursion on real threads.
    for (;;) {
      Call* nested = nullptr;
      {
        std::unique_lock<std::mutex> lk(home->mu);
        home->cv.wait(lk, [&] {
          return call.done.load() || call.rejected.load() ||
                 !home->mailbox.empty();
        });
        if (call.done.load() || call.rejected.load()) break;
        nested = PopLocked(home);
      }
      Execute(nested);
    }
  }
  return call.done.load();
}

bool ThreadPerNodeExecutor::RunQueued(NodeId id) {
  Worker* w = t_owner == this ? static_cast<Worker*>(t_worker) : nullptr;
  if (w == nullptr || w->id != id) return true;
  // Only the calls waiting now: a session whose call completes inside this
  // loop and sends its next one must not keep the caller from its ack.
  std::size_t waiting = 0;
  {
    std::lock_guard<std::mutex> lk(w->mu);
    waiting = w->mailbox.size();
  }
  for (; waiting > 0; --waiting) {
    Call* c = nullptr;
    {
      std::lock_guard<std::mutex> lk(w->mu);
      if (w->stopping || w->mailbox.empty()) break;
      c = PopLocked(w);
    }
    Execute(c);
  }
  std::lock_guard<std::mutex> lk(w->mu);
  return !w->stopping;
}

std::size_t ThreadPerNodeExecutor::QueuedCalls(NodeId id) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return 0;
  std::lock_guard<std::mutex> lk(w->mu);
  return w->mailbox.size();
}

bool ThreadPerNodeExecutor::Stopping(NodeId id) {
  Worker* w = FindWorker(id);
  if (w == nullptr) return false;
  std::lock_guard<std::mutex> lk(w->mu);
  return w->stopping;
}

}  // namespace clog
