// Real-threads wall-clock benchmarks (docs/architecture_modes.md).
//
// Everything in the other bench binaries runs on the deterministic
// simulator and reports *simulated* time. This binary is the other half of
// the dual-mode story: the same engine on real threads, a real clock, and
// real fsyncs, reporting wall-clock latency distributions the way log
// libraries (NanoLog, spdlog) report theirs — exact p50/p99.9 over raw
// per-operation samples, not histogram interpolation.
//
//   BM_LogAppend   N producer threads (1/2/4) appending 64-byte update
//                  records to ONE shared LogManager while a flusher thread
//                  forces the tail — the multi-producer staging-buffer
//                  shape from the CNanoLog pipeline. Measures the
//                  per-append critical section under contention.
//   BM_Commit      N client sessions (1/2/4), each a real thread on its
//                  own node, committing update transactions against its
//                  own pages (client-local logging: commit = one local
//                  log force, zero messages). Measures end-to-end commit
//                  latency including the real fsync.
//   BM_Recovery    Restart recovery wall clock at redo_workers 1/4 under
//                  adaptive logging: the chain scheduler replaying on the
//                  node's own thread vs on a 4-thread worker pool
//                  (docs/RECOVERY_WALKTHROUGH.md "Redo of self-only
//                  pages"). The w1/w4 ratio is the worker scaling.
//
// Results go to BENCH_real.json (scripts/run_bench.sh --real). They are
// wall-clock and machine-dependent: recorded for eyeballing trends, never
// gated (docs/performance.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "wal/log_manager.h"

using namespace clog;
using namespace clog::bench;

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LatencyStats {
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p999_ns = 0;
};

/// Exact quantiles over the pooled raw samples (sorted, nearest-rank).
LatencyStats Summarize(std::vector<std::uint64_t> samples,
                       std::uint64_t wall_ns) {
  LatencyStats out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(q * (samples.size() - 1));
    return static_cast<double>(samples[rank]);
  };
  out.p50_ns = at(0.50);
  out.p999_ns = at(0.999);
  out.ops_per_sec = wall_ns == 0 ? 0
                                 : static_cast<double>(samples.size()) * 1e9 /
                                       static_cast<double>(wall_ns);
  return out;
}

LatencyStats MeasureLogAppend(int producers, int appends_per_producer) {
  // Memory-backed fs on purpose: this bench measures the WAL *front end*
  // (reservation, staging, drain assembly), and producers generate bytes
  // several times faster than a small host's disk absorbs them — on a real
  // device the whole pipeline degenerates to disk-bound within a second
  // and every configuration measures the same platter. The commit bench
  // below keeps its logs on the real filesystem.
  std::string dir = "/dev/shm/clog_bench_real_log";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  LogManager log;
  Check(log.Open(dir + "/wal.log"), "log open");
  // The measured configuration is the real-mode one: lock-free producer
  // front end with the background drainer assembling the tail.
  log.StartDrainer();

  std::vector<std::vector<std::uint64_t>> samples(producers);
  std::atomic<bool> done{false};
  std::uint64_t t0 = NowNs();

  // Background flusher: forces the shared tail in a loop, like the commit
  // path does under group commit. Producers measure only their append.
  std::thread flusher([&] {
    while (!done.load(std::memory_order_acquire)) {
      Check(log.Flush(log.end_lsn()), "flush");
      std::this_thread::yield();
    }
    Check(log.Flush(log.end_lsn()), "final flush");
  });

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      LogRecord rec;
      rec.type = LogRecordType::kUpdate;
      rec.txn = static_cast<TxnId>(p + 1);
      rec.page = PageId{0, static_cast<std::uint32_t>(p)};
      rec.redo_image.assign(64, 'a' + static_cast<char>(p % 26));
      std::vector<std::uint64_t>& mine = samples[p];
      mine.reserve(appends_per_producer);
      for (int i = 0; i < appends_per_producer; ++i) {
        Lsn lsn = 0;
        std::uint64_t s0 = NowNs();
        Check(log.Append(rec, &lsn), "append");
        mine.push_back(NowNs() - s0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t wall = NowNs() - t0;
  done.store(true, std::memory_order_release);
  flusher.join();
  Check(log.Close(), "log close");
  std::system(("rm -rf " + dir).c_str());

  std::vector<std::uint64_t> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  return Summarize(std::move(all), wall);
}

LatencyStats MeasureCommit(int sessions, int txns_per_session) {
  std::string dir = "/tmp/clog_bench_real_commit";
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  options.execution_mode = ExecutionMode::kRealThreads;
  options.node_defaults.buffer_frames = 256;
  Cluster cluster(options);

  // One node per session, each committing against its own pages: sessions
  // contend on nothing but the machine (scheduler, disk), which is exactly
  // the axis this bench sweeps.
  std::vector<std::vector<RecordId>> records(sessions);
  for (int s = 0; s < sessions; ++s) {
    Node* n = Value(cluster.AddNode(), "node");
    auto pages = Value(AllocatePopulatedPages(&cluster, n->id(), 4, 8, 64,
                                              /*seed=*/s + 1),
                       "pages");
    for (PageId pid : pages) {
      for (SlotId slot = 0; slot < 8; ++slot) {
        records[s].push_back(RecordId{pid, slot});
      }
    }
  }

  std::vector<std::vector<std::uint64_t>> samples(sessions);
  std::uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Random rng(static_cast<std::uint64_t>(s) + 99);
      std::vector<std::uint64_t>& mine = samples[s];
      mine.reserve(txns_per_session);
      for (int i = 0; i < txns_per_session; ++i) {
        std::uint64_t s0 = NowNs();
        Status st = cluster.RunTransaction(
            static_cast<NodeId>(s), [&](TxnHandle& txn) -> Status {
              for (int u = 0; u < 4; ++u) {
                const RecordId& rid =
                    records[s][rng.Uniform(records[s].size())];
                CLOG_RETURN_IF_ERROR(txn.Update(rid, rng.Bytes(64)));
              }
              return Status::OK();
            });
        Check(st, "commit txn");
        mine.push_back(NowNs() - s0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t wall = NowNs() - t0;

  std::vector<std::uint64_t> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  LatencyStats out = Summarize(std::move(all), wall);
  std::system(("rm -rf " + dir).c_str());
  return out;
}

struct RecoveryResult {
  double wall_ms = 0;
  std::uint64_t chains = 0;
  std::uint64_t parallel_pages = 0;
  std::uint64_t applied = 0;
};

/// BM_Recovery: restart recovery wall clock vs redo worker count
/// (docs/RECOVERY_WALKTHROUGH.md "Redo of self-only pages"). One owner
/// commits adaptive single-page transactions against 16 of its own pages,
/// crashes with the cache lost, and restarts. The chain scheduler makes
/// one raw pass over the log either way; with 1 worker the node's thread
/// replays the page-disjoint chains in order, with 4 a pool checksums,
/// decodes and applies them concurrently. Identical log, identical final
/// pages — only the replay parallelism differs.
RecoveryResult MeasureRecovery(std::size_t redo_workers, int rounds) {
  std::string dir = "/tmp/clog_bench_real_recovery";
  std::system(("rm -rf " + dir).c_str());
  ClusterOptions options;
  options.dir = dir;
  options.execution_mode = ExecutionMode::kRealThreads;
  options.node_defaults.buffer_frames = 64;
  options.logging_policy = LoggingPolicy()
                               .WithStrategy(LogStrategy::kAdaptive)
                               .WithRedoWorkers(redo_workers);
  Cluster cluster(options);
  Node* owner = Value(cluster.AddNode(), "owner");
  // A second node keeps the PSN-list exchange honest: it answers with an
  // empty list, proving the pages self-only rather than assuming it.
  Value(cluster.AddNode(), "peer");
  auto pages = Value(
      AllocatePopulatedPages(&cluster, owner->id(), 16, 8, 64, 7), "pages");

  Random rng(11);
  for (int r = 0; r < rounds; ++r) {
    for (PageId pid : pages) {
      Status st = cluster.RunTransaction(
          owner->id(), [&](TxnHandle& txn) -> Status {
            for (int u = 0; u < 4; ++u) {
              const RecordId rid{pid, static_cast<SlotId>(rng.Uniform(8))};
              CLOG_RETURN_IF_ERROR(txn.Update(rid, rng.Bytes(256)));
            }
            return Status::OK();
          });
      Check(st, "recovery workload txn");
    }
  }

  Check(cluster.CrashNode(owner->id()), "crash");
  std::uint64_t t0 = NowNs();
  Check(cluster.RestartNode(owner->id()), "restart");
  std::uint64_t wall = NowNs() - t0;

  const auto& s = cluster.recovery_stats().at(owner->id());
  RecoveryResult out;
  out.wall_ms = static_cast<double>(wall) / 1e6;
  out.chains = s.redo_chains;
  out.parallel_pages = s.parallel_pages;
  out.applied = s.redo_applied;

  // The recovered state must be servable whatever the engine was.
  Status st = cluster.RunTransaction(
      owner->id(), [&](TxnHandle& txn) -> Status {
        for (PageId pid : pages) {
          CLOG_RETURN_IF_ERROR(txn.ScanPage(pid).status());
        }
        return Status::OK();
      });
  Check(st, "post-recovery scan");
  std::system(("rm -rf " + dir).c_str());
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<std::pair<std::string, double>>& kv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH FATAL cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.3f%s\n", kv[i].first.c_str(), kv[i].second,
                 i + 1 < kv.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg == "--quick") quick = true;
  }
  // Append phase must run whole seconds per configuration: at multi-million
  // appends/s a 100k run is over in ~30ms, and scheduler noise swamps the
  // thread-count comparison.
  const int appends = quick ? 5'000 : 1'000'000;
  const int txns = quick ? 20 : 200;

  Banner("real mode (wall clock)",
         "Multi-producer log append and end-to-end commit latency on the "
         "real-threads engine. Raw-sample p50/p99.9 in microseconds; "
         "machine-dependent, recorded but never gated.");

  std::vector<std::pair<std::string, double>> kv;

  std::printf("--- BM_LogAppend: shared log, %d appends/producer ---\n",
              appends);
  std::printf("%-10s | %12s %10s %10s\n", "producers", "appends/s", "p50_us",
              "p99.9_us");
  for (int producers : {1, 2, 4}) {
    LatencyStats st = MeasureLogAppend(producers, appends);
    std::printf("%-10d | %12.0f %10.2f %10.2f\n", producers, st.ops_per_sec,
                st.p50_ns / 1e3, st.p999_ns / 1e3);
    std::string key = "real_log_append_t" + std::to_string(producers);
    kv.push_back({key + "_ops_per_sec", st.ops_per_sec});
    kv.push_back({key + "_p50_ns", st.p50_ns});
    kv.push_back({key + "_p999_ns", st.p999_ns});
  }

  std::printf("\n--- BM_Commit: 4 updates/txn, %d txns/session ---\n", txns);
  std::printf("%-10s | %12s %10s %10s\n", "sessions", "commits/s", "p50_us",
              "p99.9_us");
  for (int sessions : {1, 2, 4}) {
    LatencyStats st = MeasureCommit(sessions, txns);
    std::printf("%-10d | %12.0f %10.2f %10.2f\n", sessions, st.ops_per_sec,
                st.p50_ns / 1e3, st.p999_ns / 1e3);
    std::string key = "real_commit_s" + std::to_string(sessions);
    kv.push_back({key + "_per_sec", st.ops_per_sec});
    kv.push_back({key + "_p50_ns", st.p50_ns});
    kv.push_back({key + "_p999_ns", st.p999_ns});
  }

  const int rounds = quick ? 10 : 100;
  std::printf(
      "\n--- BM_Recovery: 16 pages, %d single-page txns, crash+restart "
      "---\n",
      rounds * 16);
  std::printf("%-10s | %10s %7s %9s %9s\n", "workers", "wall_ms", "chains",
              "par_pages", "applied");
  double w1_ms = 0, w4_ms = 0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    RecoveryResult r = MeasureRecovery(workers, rounds);
    std::printf("%-10zu | %10.2f %7llu %9llu %9llu\n", workers, r.wall_ms,
                static_cast<unsigned long long>(r.chains),
                static_cast<unsigned long long>(r.parallel_pages),
                static_cast<unsigned long long>(r.applied));
    std::string key = "real_recovery_w" + std::to_string(workers);
    kv.push_back({key + "_ms", r.wall_ms});
    if (workers == 1) w1_ms = r.wall_ms;
    if (workers == 4) w4_ms = r.wall_ms;
  }
  // Worker scaling of the replay alone: both rows run the same one-pass
  // scheduler, so this ratio isolates what the pool adds.
  const double speedup = w4_ms > 0 ? w1_ms / w4_ms : 0;
  std::printf("redo worker scaling, 1 -> 4 workers: %.2fx\n", speedup);
  kv.push_back({"real_recovery_parallel_speedup", speedup});

  if (!json_path.empty()) {
    WriteJson(json_path, kv);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
