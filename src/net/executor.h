#ifndef CLOG_NET_EXECUTOR_H_
#define CLOG_NET_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/types.h"

/// \file
/// The execution seam of the dual-mode engine (docs/architecture_modes.md).
/// Every piece of work that must run "on" a node — a client transaction
/// body, a peer RPC handler, a recovery phase — goes through
/// Executor::Run(node, fn). The simulation backend executes it inline on
/// the single driving thread, preserving the deterministic synchronous
/// call graph byte for byte. The real-threads backend gives each node one
/// worker thread draining a bounded MPSC mailbox, so node state stays
/// thread-confined exactly as the single-threaded Node code assumes while
/// different nodes genuinely run in parallel on real time and real fsync.

namespace clog {

/// Which backend a Cluster runs on (ClusterOptions::execution_mode).
enum class ExecutionMode : std::uint8_t {
  kSimulation = 0,   ///< Deterministic inline execution on a SimClock.
  kRealThreads = 1,  ///< Thread-per-node mailboxes on a WallClock.
};

/// Strategy interface for where node work executes.
class Executor {
 public:
  using Task = std::function<void()>;

  virtual ~Executor() = default;

  /// True when nodes run on their own threads (real mode). Gates the bits
  /// of Cluster wiring that must not exist in simulation mode, where any
  /// extra call would perturb the deterministic schedule.
  virtual bool real_threads() const = 0;

  /// Brings up (or re-arms after StopNode) the execution context of `id`.
  virtual void StartNode(NodeId id) = 0;

  /// Tears down `id`'s execution context: no new work is admitted, the
  /// worker finishes its current task and is joined, and anything still
  /// queued is rejected. Models killing the node's process. Idempotent.
  virtual void StopNode(NodeId id) = 0;

  /// StopNode for every known node (cluster shutdown).
  virtual void StopAll() = 0;

  /// Runs `fn` in `id`'s execution context and waits for it to finish.
  /// Returns false if the work was rejected because the node's context is
  /// stopped (the caller sees the node as down). `fn` may itself call Run
  /// against other nodes (RPCs) or the same node (self-sends).
  virtual bool Run(NodeId id, const Task& fn) = 0;

  /// Runs, on `id`'s own execution context, the calls already waiting in
  /// its mailbox when this is called — typically other sessions'
  /// transaction bodies — before the caller goes on. Node::Commit calls it
  /// between parking its COMMIT record and forcing the log, so committers
  /// that were queued behind it park too and one force covers them all
  /// (docs/PROTOCOLS.md "Commit coalescing"). A no-op returning true when
  /// the caller is not `id`'s worker. Returns false if the context began
  /// stopping (the node is being killed): the caller must not force or
  /// acknowledge anything, since the crash decides every parked commit.
  virtual bool RunQueued(NodeId id) = 0;
};

/// Simulation backend: work runs synchronously on the calling thread. The
/// Start/Stop lifecycle is a no-op — liveness is modeled by Node/Network
/// state, exactly as before the seam existed.
class InlineExecutor final : public Executor {
 public:
  bool real_threads() const override { return false; }
  void StartNode(NodeId id) override {}
  void StopNode(NodeId id) override {}
  void StopAll() override {}
  bool Run(NodeId id, const Task& fn) override {
    fn();
    return true;
  }
  /// Nothing is ever queued: every call ran to completion inline.
  bool RunQueued(NodeId id) override { return true; }
};

/// Real-threads backend: one worker thread per node draining a bounded
/// MPSC mailbox of calls. Senders block while the mailbox is full
/// (backpressure) and block until their call completes (the RPC surface is
/// synchronous request/reply).
///
/// Reentrant waits keep the sim's recursive call shape deadlock-free: a
/// node thread that is waiting for a reply from another node drains and
/// executes its *own* mailbox in the meantime, so a call chain A -> B -> A
/// completes on A's thread just as it completes on the simulation's one
/// thread. This is also what keeps Node's deep state thread-confined: all
/// work on node N — whatever thread submitted it — executes on N's worker.
class ThreadPerNodeExecutor final : public Executor {
 public:
  static constexpr std::size_t kDefaultMailboxCapacity = 1024;

  explicit ThreadPerNodeExecutor(
      std::size_t mailbox_capacity = kDefaultMailboxCapacity);
  ~ThreadPerNodeExecutor() override;

  bool real_threads() const override { return true; }
  void StartNode(NodeId id) override;
  void StopNode(NodeId id) override;
  void StopAll() override;
  bool Run(NodeId id, const Task& fn) override;
  bool RunQueued(NodeId id) override;

  /// Calls waiting in `id`'s mailbox right now (introspection for drills
  /// that must know a call is queued before they let the worker go on).
  std::size_t QueuedCalls(NodeId id);
  /// True once StopNode(id) has begun and before the worker is restarted.
  bool Stopping(NodeId id);

 private:
  struct Worker;

  /// One in-flight Run() call. Lives on the sender's stack — Run blocks
  /// until `done` or `rejected`, so the pointer in the mailbox never
  /// dangles. Completion is signalled on the sender's own worker's cv when
  /// the sender is a node thread (reentrant wait), else on `cv` here.
  struct Call {
    const Task* fn = nullptr;
    Worker* home = nullptr;  ///< Sender's worker; nullptr for external threads.
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> done{false};
    std::atomic<bool> rejected{false};
  };

  /// Per-node mailbox + thread. Workers are created once per node id and
  /// never destroyed before the executor (stable addresses: in-flight calls
  /// hold `home` pointers across restarts of other nodes).
  struct Worker {
    NodeId id = kInvalidNodeId;
    std::mutex mu;
    std::condition_variable cv;        ///< Work arrival / completion / stop.
    std::condition_variable not_full;  ///< Mailbox backpressure.
    std::deque<Call*> mailbox;
    bool running = false;
    bool stopping = false;
    std::thread thread;
  };

  Worker* FindWorker(NodeId id);
  void WorkerLoop(Worker* w);
  static void Execute(Call* c);
  /// Pops the oldest call of `w`'s mailbox; `w->mu` must be held and the
  /// mailbox non-empty.
  static Call* PopLocked(Worker* w);
  static void FinishCall(Call* c, bool rejected);
  static void StopLocked(Worker* w);

  const std::size_t capacity_;
  std::mutex registry_mu_;
  std::map<NodeId, std::unique_ptr<Worker>> workers_;
};

}  // namespace clog

#endif  // CLOG_NET_EXECUTOR_H_
