// pb_native — the native mode of every perfbench workload, plus the
// per-layer probes (probes.cpp).
//
//   --mode prodcons  wl::BoundedBuffer (capacity 8) on a coordinator
//                    RobustMonitor; 1 producer + 1 consumer.
//   --mode forks     256 one-unit wl::ResourceAllocator forks; 3 threads
//                    cross seeded random pairs lowest index first.
//   --mode ring      the deadlock loop: 3 threads on a 3-fork ring close a
//                    hold-and-wait cycle every episode; the pool confirms
//                    it, poisons a victim, the victim retries and the ring
//                    completes.  Per-episode detect and recover latency.
//   --mode probes    the per-layer component probes (probes.cpp).
//
// Thread budget (at most 4 per process, robmon's included): untraced runs
// use the main thread as workload thread 0 plus one CheckerPool worker;
// traced runs schedule no worker and the main thread drives check_now and
// the checkpoints itself at the pool's cadences, under spans.
//
// Output: one JSON line on stdout.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "native.hpp"
#include "robmon.hpp"

namespace pb {
namespace {

using robmon::core::CollectingSink;
using robmon::core::FaultReport;
using robmon::core::MonitorSpec;
using robmon::core::ReportSink;
using robmon::core::RuleId;
using robmon::rt::CheckerPool;
using robmon::rt::RobustMonitor;
using robmon::rt::Status;
namespace util = robmon::util;

struct Config {
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string inject = "none";
  int min_episodes = 200;
  int chunk = 0;
  double shim_rate = 0;
};

Config g_config;

/// Span names (interned once, before any workload thread starts).
struct Names {
  std::uint32_t host_op = 0;
  std::uint32_t check_now = 0;
  std::uint32_t waitfor = 0;
  std::uint32_t lockorder = 0;
  std::uint32_t tick = 0;
} g_names;

/// Cadences of the pool a throughput workload runs on: the shim defaults.
constexpr util::TimeNs kCheckPeriod = 100 * util::kMillisecond;
constexpr util::TimeNs kWaitforPeriod = 250 * util::kMillisecond;
constexpr util::TimeNs kLockorderPeriod = 500 * util::kMillisecond;
/// Deadlock-loop cadences (wl::DiningLoadOptions).
constexpr util::TimeNs kRingCheckPeriod = 5 * util::kMillisecond;
constexpr util::TimeNs kRingWaitforPeriod = 10 * util::kMillisecond;

/// The robmon objects of one run, built once by a set-up function that the
/// run times.
struct Rig {
  CollectingSink sink;  ///< Every report of every kind lands here.
  std::unique_ptr<CheckerPool> pool;
  std::vector<std::unique_ptr<RobustMonitor>> monitors;
  std::unique_ptr<robmon::wl::BoundedBuffer> buffer;
  std::vector<std::unique_ptr<robmon::wl::ResourceAllocator>> forks;
  util::TimeNs check_period = kCheckPeriod;
  util::TimeNs waitfor_period = kWaitforPeriod;

  ~Rig() {
    // Allocators unhook their gauges before their monitors go away, and
    // monitors unregister before the pool is destroyed.
    buffer.reset();
    forks.clear();
    monitors.clear();
    pool.reset();
  }
};

CheckerPool::Options throughput_pool_options(ReportSink& sink) {
  CheckerPool::Options options;
  options.threads = 1;
  options.waitfor_checkpoint_period = kWaitforPeriod;
  options.waitfor_sink = &sink;
  options.lockorder_checkpoint_period = kLockorderPeriod;
  options.lockorder_sink = &sink;
  return options;
}

/// Every native monitor gets 30 s timers (Tmax, Tio, Tlimit), as
/// wl::DiningLoadOptions does: the workloads hold a monitor for
/// microseconds, and with the 50 ms default Tmax a thread descheduled by the
/// host for longer (seen on the reference VM) is reported as an ST-5 fault.
MonitorSpec with_timers(MonitorSpec spec, util::TimeNs check_period) {
  spec.check_period = check_period;
  spec.t_limit = spec.t_max = spec.t_io = 30 * util::kSecond;
  return spec;
}

RobustMonitor::Options monitor_options(CheckerPool& pool) {
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  return options;
}

void start_checking(Rig& rig) {
  if (g_config.trace) return;  // the traced run drives checks itself
  for (auto& monitor : rig.monitors) monitor->start_checking();
}

void build_prodcons(Rig& rig) {
  rig.pool = std::make_unique<CheckerPool>(throughput_pool_options(rig.sink));
  rig.monitors.push_back(std::make_unique<RobustMonitor>(
      with_timers(MonitorSpec::coordinator("buf", kBufferCapacity), kCheckPeriod),
      rig.sink, monitor_options(*rig.pool)));
  rig.buffer = std::make_unique<robmon::wl::BoundedBuffer>(*rig.monitors[0],
                                                           kBufferCapacity);
  start_checking(rig);
}

void build_forks(Rig& rig) {
  rig.pool = std::make_unique<CheckerPool>(throughput_pool_options(rig.sink));
  for (int f = 0; f < kForks; ++f) {
    rig.monitors.push_back(std::make_unique<RobustMonitor>(
        with_timers(MonitorSpec::allocator("fork" + std::to_string(f)),
                    kCheckPeriod),
        rig.sink, monitor_options(*rig.pool)));
    rig.forks.push_back(
        std::make_unique<robmon::wl::ResourceAllocator>(*rig.monitors.back(), 1));
  }
  start_checking(rig);
}

/// Builds `rig` with `build` and returns the time the build took, the
/// process's first (cold) bring-up of robmon, as the shim's set-up is.
template <typename Build>
double timed_setup(std::unique_ptr<Rig>& rig, Build build) {
  pin_to_slot(kCheckerSlot);  // the pool worker inherits this CPU
  const std::int64_t start = now_ns();
  rig = std::make_unique<Rig>();
  build(*rig);
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// The traced run's checker: the calling thread plays the pool worker,
/// checking every monitor at its period and running both checkpoints at
/// theirs, each call under a span, until `done` is raised.
void drive_checks(Rig& rig, const std::atomic<bool>& done) {
  const std::int64_t start = now_ns();
  std::int64_t next_check = start + rig.check_period;
  std::int64_t next_waitfor = start + rig.waitfor_period;
  std::int64_t next_lockorder = start + kLockorderPeriod;
  while (!done.load(std::memory_order_acquire)) {
    const std::int64_t now = now_ns();
    const std::int64_t due = std::min({next_check, next_waitfor, next_lockorder});
    if (now < due) {
      sleep_ns(std::min<std::int64_t>(due - now, 200'000));
      continue;
    }
    Span tick(true, g_names.tick);
    if (now >= next_check) {
      for (auto& monitor : rig.monitors) {
        Span span(true, g_names.check_now);
        monitor->check_now();
      }
      next_check += rig.check_period;
    }
    if (now >= next_waitfor) {
      Span span(true, g_names.waitfor);
      rig.pool->run_waitfor_checkpoint();
      next_waitfor += rig.waitfor_period;
    }
    if (now >= next_lockorder) {
      Span span(true, g_names.lockorder);
      rig.pool->run_lockorder_checkpoint();
      next_lockorder += kLockorderPeriod;
    }
  }
}

/// Runs `body(t)` for t in [0, threads), thread t on CPU slot t: untraced,
/// thread 0 is the main thread; traced, every body gets its own thread and
/// main drives checks from kCheckerSlot.
template <typename Body>
void run_threads(Rig& rig, int threads, Body body) {
  std::atomic<int> running{threads};
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  const int first_spawned = g_config.trace ? 0 : 1;
  for (int t = first_spawned; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (g_config.mode != "ring") pin_to_slot(t);
      body(t);
      if (running.fetch_sub(1) == 1) done.store(true, std::memory_order_release);
    });
  }
  if (g_config.trace) {
    drive_checks(rig, done);
  } else {
    if (g_config.mode != "ring") pin_to_slot(0);
    body(0);
  }
  for (std::thread& worker : workers) worker.join();
}

/// Host-op span wrapper around every RobustMonitor-level call of the
/// workload; a sampled call is traced.
template <typename Fn>
Status host_op(Fn fn) {
  Span span(sampled(g_config.trace), g_names.host_op);
  return fn();
}

void emit_common(Json& out, const Rig& rig, std::int64_t ops, double elapsed_s,
                 double cpu_s, double setup_s) {
  out.text("mode", g_config.mode);
  out.integer("seed", static_cast<std::int64_t>(g_config.seed));
  out.integer("ops", ops);
  out.num("elapsed_s", elapsed_s);
  out.num("cpu_s", cpu_s);
  out.num("setup_s", setup_s);
  std::uint64_t appended = 0;
  std::uint64_t idle = 0;
  std::uint64_t checks = 0;
  for (const auto& monitor : rig.monitors) {
    appended += monitor->monitor().log().total_appended();
    idle += monitor->detector().idle_checks();
    checks += monitor->detector().checks_run();
  }
  out.integer("events_appended", static_cast<std::int64_t>(appended));
  out.integer("events_lost", static_cast<std::int64_t>(rig.pool->events_lost()));
  out.integer("reports", static_cast<std::int64_t>(rig.sink.count()));
  std::map<std::string, int> rules;
  for (const FaultReport& report : rig.sink.reports()) {
    ++rules[std::string(robmon::core::to_string(report.rule))];
  }
  std::string rule_counts;
  for (const auto& [rule, count] : rules) {
    rule_counts += rule + "x" + std::to_string(count) + " ";
  }
  out.text("report_rules", rule_counts);
  const CheckerPool& pool = *rig.pool;
  out.integer("checks", static_cast<std::int64_t>(pool.checks_executed()));
  out.integer("idle_checks", static_cast<std::int64_t>(idle));
  out.integer("detector_checks", static_cast<std::int64_t>(checks));
  out.integer("dispatches", static_cast<std::int64_t>(pool.dispatches()));
  out.integer("batched_checks", static_cast<std::int64_t>(pool.batched_checks()));
  out.integer("check_ns", static_cast<std::int64_t>(pool.total_check_ns()));
  out.integer("quiesce_ns", static_cast<std::int64_t>(pool.total_quiesce_ns()));
  out.integer("waitfor_passes", static_cast<std::int64_t>(pool.waitfor_checkpoints()));
  out.integer("lockorder_edges",
              static_cast<std::int64_t>(pool.lockorder_edge_count()));
}

// --- prodcons -----------------------------------------------------------------

int run_prodcons() {
  std::unique_ptr<Rig> rig;
  const double setup_s = timed_setup(rig, build_prodcons);
  robmon::wl::BoundedBuffer& buffer = *rig->buffer;

  std::atomic<std::int64_t> sent{0};
  std::int64_t received = 0;
  std::int64_t mismatches = 0;
  std::atomic<std::int64_t> bad_status{0};
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_s();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(g_config.seconds * 1e9);
  run_threads(*rig, 2, [&](int t) {
    const robmon::trace::Pid pid = t + 1;
    if (t == 0) {
      Rng stream = item_stream(g_config.seed);
      std::int64_t n = 0;
      while ((n & 255) != 0 || now_ns() < deadline) {
        const std::int64_t item = next_item(stream);
        if (!(g_config.inject == "drop-item" && n == kDroppedItem)) {
          if (host_op([&] { return buffer.send(pid, item); }) != Status::kOk) {
            bad_status.fetch_add(1);
          }
        }
        ++n;
      }
      if (buffer.send(pid, kEndOfStream) != Status::kOk) bad_status.fetch_add(1);
      sent.store(n);
      return;
    }
    Rng expected = item_stream(g_config.seed);
    for (;;) {
      std::int64_t item = 0;
      if (host_op([&] { return buffer.receive(pid, &item); }) != Status::kOk) {
        bad_status.fetch_add(1);
        break;
      }
      if (item == kEndOfStream) break;
      if (item != next_item(expected)) ++mismatches;
      ++received;
    }
  });
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const double cpu_s = process_cpu_s() - cpu_start;
  const std::int64_t items = sent.load();

  Json out;
  emit_common(out, *rig, 2 * items, elapsed_s, cpu_s, setup_s);
  out.integer("errors", mismatches + bad_status.load() +
                            (received == items ? 0 : 1));
  if (g_config.trace) emit_layer_costs(out, *rig->pool, rig->monitors);
  rig.reset();
  out.num("rss_mb", max_rss_mb());
  if (g_config.trace) emit_spans(out);
  out.print();
  return 0;
}

// --- forks --------------------------------------------------------------------

int run_forks() {
  std::unique_ptr<Rig> rig;
  const double setup_s = timed_setup(rig, build_forks);

  std::atomic<std::int64_t> crossings{0};
  std::atomic<std::int64_t> errors{0};
  std::vector<std::atomic<int>> owners(kForks);
  for (auto& owner : owners) owner.store(-1);
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_s();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(g_config.seconds * 1e9);
  run_threads(*rig, kForkThreads, [&](int t) {
    const robmon::trace::Pid pid = t + 1;
    Rng pairs = fork_stream(g_config.seed, t);
    std::int64_t done = 0;
    std::int64_t bad = 0;
    while ((done & 63) != 0 || now_ns() < deadline) {
      const auto [lo, hi] = next_fork_pair(pairs);
      auto& first = *rig->forks[static_cast<std::size_t>(lo)];
      auto& second = *rig->forks[static_cast<std::size_t>(hi)];
      if (host_op([&] { return first.acquire(pid); }) != Status::kOk) ++bad;
      if (host_op([&] { return second.acquire(pid); }) != Status::kOk) ++bad;
      int expected = -1;
      if (!owners[static_cast<std::size_t>(lo)].compare_exchange_strong(expected, t)) ++bad;
      expected = -1;
      if (!owners[static_cast<std::size_t>(hi)].compare_exchange_strong(expected, t)) ++bad;
      owners[static_cast<std::size_t>(hi)].store(-1);
      owners[static_cast<std::size_t>(lo)].store(-1);
      if (host_op([&] { return second.release(pid); }) != Status::kOk) ++bad;
      if (host_op([&] { return first.release(pid); }) != Status::kOk) ++bad;
      ++done;
    }
    crossings.fetch_add(done);
    errors.fetch_add(bad);
  });
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const double cpu_s = process_cpu_s() - cpu_start;

  Json out;
  emit_common(out, *rig, crossings.load(), elapsed_s, cpu_s, setup_s);
  out.integer("errors", errors.load());
  if (g_config.trace) emit_layer_costs(out, *rig->pool, rig->monitors);
  rig.reset();
  out.num("rss_mb", max_rss_mb());
  if (g_config.trace) emit_spans(out);
  out.print();
  return 0;
}

// --- ring (deadlock loop) ------------------------------------------------------

/// An episode whose cycle is not reported and broken within this long is
/// a failed op (a stuck process is ended by run.py's per-process timeout;
/// the bound only keeps a slow-but-live episode from passing).
constexpr std::int64_t kEpisodeDeadlineNs = 2'000'000'000;

/// Per-episode observations.  Written by the ring threads and the report
/// sinks; read by the episode-completion step while every ring thread
/// waits at the barrier.
struct Episode {
  std::atomic<std::int64_t> call_ns[kRing] = {};
  std::atomic<std::int64_t> report_ns{0};
  std::atomic<std::int64_t> fault_ns{0};
  std::atomic<std::uint64_t> report_pass{0};
  std::atomic<std::uint64_t> fault_pass{0};
  std::atomic<int> reports{0};
  std::atomic<int> exact_reports{0};
  std::atomic<int> actions{0};
  std::atomic<int> other_reports{0};

  void reset() {
    for (auto& call : call_ns) call.store(0);
    report_ns.store(0);
    fault_ns.store(0);
    report_pass.store(0);
    fault_pass.store(0);
    reports.store(0);
    exact_reports.store(0);
    actions.store(0);
    other_reports.store(0);
  }
};

Episode g_episode;
CheckerPool* g_ring_pool = nullptr;

std::string ring_fork_name(int f) { return "ring-fork" + std::to_string(f); }

/// True iff `message` names exactly the ring's 3-link cycle: every thread
/// waits on its right fork, held by the right-hand neighbour.
bool is_exact_ring_cycle(const std::string& message) {
  if (message.rfind("global deadlock cycle (3 links): ", 0) != 0) return false;
  for (int t = 0; t < kRing; ++t) {
    const int right = (t + 1) % kRing;
    const std::string link = "p" + std::to_string(t + 1) + " waits on " +
                             ring_fork_name(right) + "[available] held by p" +
                             std::to_string(right + 1);
    if (message.find(link) == std::string::npos) return false;
  }
  return true;
}

/// The bench's wait-for sink: timestamps the GlobalDeadlock report.  With
/// --inject detach-sink it discards every report (negative control: the
/// pool still breaks the cycle, but no detection reaches the bench).
class WaitforSink final : public ReportSink {
 public:
  void report(const FaultReport& fault) override {
    if (g_config.inject == "detach-sink") return;
    const std::int64_t now = now_ns();
    if (fault.rule != RuleId::kWfCycleDetected) {
      g_episode.other_reports.fetch_add(1);
      return;
    }
    if (g_episode.reports.fetch_add(1) == 0) {
      g_episode.report_ns.store(now);
      g_episode.report_pass.store(g_ring_pool->waitfor_checkpoints());
    }
    if (is_exact_ring_cycle(fault.message)) g_episode.exact_reports.fetch_add(1);
  }
};

class ActionSink final : public ReportSink {
 public:
  void report(const FaultReport& fault) override {
    if (fault.rule == RuleId::kRecoveryAction) {
      g_episode.actions.fetch_add(1);
    } else {
      g_episode.other_reports.fetch_add(1);
    }
  }
};

class OtherSink final : public ReportSink {
 public:
  void report(const FaultReport&) override { g_episode.other_reports.fetch_add(1); }
};

struct RingRig {
  WaitforSink waitfor_sink;
  ActionSink action_sink;
  OtherSink other_sink;
  robmon::core::RecoveryPolicy policy;
  std::unique_ptr<Rig> rig;
};

void build_ring(RingRig& ring) {
  Rig& rig = *ring.rig;
  rig.check_period = kRingCheckPeriod;
  rig.waitfor_period = kRingWaitforPeriod;
  CheckerPool::Options options;
  options.threads = 1;
  options.waitfor_checkpoint_period = kRingWaitforPeriod;
  options.waitfor_sink = &ring.waitfor_sink;
  options.recovery.policy = &ring.policy;
  options.recovery.sink = &ring.action_sink;
  rig.pool = std::make_unique<CheckerPool>(options);
  for (int f = 0; f < kRing; ++f) {
    rig.monitors.push_back(std::make_unique<RobustMonitor>(
        with_timers(MonitorSpec::allocator(ring_fork_name(f)), kRingCheckPeriod),
        ring.other_sink, monitor_options(*rig.pool)));
    rig.forks.push_back(
        std::make_unique<robmon::wl::ResourceAllocator>(*rig.monitors.back(), 1));
  }
  start_checking(rig);
}

int run_ring() {
  pin_to_slot(g_config.chunk);  // the whole process, pool worker included
  RingRig ring;
  const std::int64_t setup_start = now_ns();
  ring.rig = std::make_unique<Rig>();
  build_ring(ring);
  const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  Rig& rig = *ring.rig;
  CheckerPool& pool = *rig.pool;
  g_ring_pool = &pool;

  std::vector<double> detect_ms;
  std::vector<double> recover_ms;
  std::vector<double> passes_to_action;
  std::int64_t episodes = 0;
  std::int64_t failed = 0;
  std::int64_t missed = 0;
  std::int64_t extra_reports = 0;
  std::int64_t bad_actions = 0;
  std::atomic<std::int64_t> bad_status{0};
  std::atomic<bool> stop{false};
  std::int64_t episode_start = 0;

  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_s();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(g_config.seconds * 1e9);

  // Runs once per episode on the last thread to finish it, while the other
  // ring threads wait: account the episode, wait for the victim monitor to
  // be unpoisoned (so the next cycle can close), decide whether to go on.
  const auto complete_episode = [&]() noexcept {
    if (episode_start != 0) {
      // The victim can finish its crossing before the pool has finished
      // acting: recovery_poison wakes the victim, and only then does the
      // worker re-baseline, count and report the action.  Judged at once,
      // that episode lacked its action and the next one began on a
      // still-poisoned fork and saw no cycle.  So wait for the action
      // first, within the episode deadline.
      const std::int64_t action_deadline = now_ns() + kEpisodeDeadlineNs;
      while (g_episode.actions.load() == 0 && now_ns() < action_deadline) {
        sleep_ns(100'000);
      }
      ++episodes;
      std::int64_t close = 0;
      for (const auto& call : g_episode.call_ns) close = std::max(close, call.load());
      const std::int64_t report = g_episode.report_ns.load();
      const std::int64_t fault = g_episode.fault_ns.load();
      bool ok = true;
      if (g_episode.reports.load() == 0) {
        ++missed;
        ok = false;
      } else if (g_episode.reports.load() != 1 ||
                 g_episode.exact_reports.load() != 1) {
        ++extra_reports;
        ok = false;
      }
      if (g_episode.actions.load() != 1) {
        ++bad_actions;
        ok = false;
      }
      if (g_episode.other_reports.load() != 0) {
        extra_reports += g_episode.other_reports.load();
        ok = false;
      }
      if (fault == 0 || report == 0 || report < close ||
          fault - close > kEpisodeDeadlineNs) {
        ok = false;
      }
      if (ok) {
        detect_ms.push_back(static_cast<double>(report - close) / 1e6);
        recover_ms.push_back(static_cast<double>(fault - report) / 1e6);
        passes_to_action.push_back(static_cast<double>(
            g_episode.fault_pass.load() - g_episode.report_pass.load()));
      } else {
        // A failed episode misses every latency limit.
        ++failed;
        detect_ms.push_back(static_cast<double>(kEpisodeDeadlineNs) / 1e6);
        recover_ms.push_back(static_cast<double>(kEpisodeDeadlineNs) / 1e6);
      }
    }
    const std::int64_t wait_deadline = now_ns() + kEpisodeDeadlineNs;
    while (pool.victims_poisoned() > pool.monitors_unpoisoned() &&
           now_ns() < wait_deadline) {
      sleep_ns(1'000'000);
    }
    if (pool.victims_poisoned() > pool.monitors_unpoisoned()) ++failed;
    g_episode.reset();
    episode_start = now_ns();
    if (episodes >= g_config.min_episodes && episode_start >= deadline) {
      stop.store(true);
    }
  };
  std::barrier episode_barrier(kRing, complete_episode);
  std::barrier rendezvous(kRing);

  // While its fork is recovery-poisoned, any call that finds the monitor
  // busy is rejected with kRecoveryFault and must be retried (the
  // RobustMonitor contract); a release that is not retried leaks the unit.
  const auto retrying = [&](auto call) {
    Status status = host_op(call);
    while (status == Status::kRecoveryFault) {
      sleep_ns(50'000);
      status = host_op(call);
    }
    if (status != Status::kOk) bad_status.fetch_add(1);
  };
  run_threads(rig, kRing, [&](int t) {
    const robmon::trace::Pid pid = t + 1;
    Rng pauses = pause_stream(g_config.seed, g_config.chunk);
    auto& left = *rig.forks[static_cast<std::size_t>(t)];
    auto& right = *rig.forks[static_cast<std::size_t>((t + 1) % kRing)];
    const auto acquire_left = [&] { retrying([&] { return left.acquire(pid); }); };
    const auto release_left = [&] { retrying([&] { return left.release(pid); }); };
    for (;;) {
      episode_barrier.arrive_and_wait();
      if (stop.load()) break;
      sleep_ns(static_cast<std::int64_t>(pauses.below(kPauseMaxNs)));
      acquire_left();
      rendezvous.arrive_and_wait();
      g_episode.call_ns[t].store(now_ns());
      Status status = host_op([&] { return right.acquire(pid); });
      while (status == Status::kRecoveryFault) {
        // The victim: hand the left fork back so the ring drains, then
        // retry the whole crossing (the poisoned monitor rejects a
        // would-block acquire until the pool unpoisons it).
        std::int64_t expected = 0;
        if (g_episode.fault_ns.compare_exchange_strong(expected, now_ns())) {
          g_episode.fault_pass.store(pool.waitfor_checkpoints());
        }
        release_left();
        sleep_ns(200'000);
        acquire_left();
        status = host_op([&] { return right.acquire(pid); });
      }
      if (status != Status::kOk) bad_status.fetch_add(1);
      retrying([&] { return right.release(pid); });
      release_left();
    }
  });
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const double cpu_s = process_cpu_s() - cpu_start;

  Json out;
  emit_common(out, rig, episodes, elapsed_s, cpu_s, setup_s);
  out.integer("episodes", episodes);
  out.integer("failed", failed);
  out.integer("missed", missed);
  out.integer("extra_reports", extra_reports);
  out.integer("bad_actions", bad_actions);
  out.integer("errors", bad_status.load());
  out.integer("recovery_actions", static_cast<std::int64_t>(pool.recovery_actions()));
  out.samples("detect_ms", detect_ms);
  out.samples("recover_ms", recover_ms);
  out.samples("passes_to_action", passes_to_action);
  if (g_config.trace) emit_layer_costs(out, pool, rig.monitors);
  ring.rig.reset();
  out.num("rss_mb", max_rss_mb());
  if (g_config.trace) emit_spans(out);
  out.print();
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using pb::g_config;
  pb::Args args(argc, argv);
  g_config.mode = args.str("mode", "");
  g_config.seed = static_cast<std::uint64_t>(args.i64("seed", 1));
  g_config.seconds = args.f64("seconds", 1.0);
  g_config.trace = args.i64("trace", 0) != 0;
  g_config.inject = args.str("inject", "none");
  g_config.min_episodes = static_cast<int>(args.i64("min-episodes", 200));
  g_config.chunk = static_cast<int>(args.i64("chunk", 0));
  g_config.shim_rate = args.f64("shim-rate", 0);
  args.finish();
  if (g_config.inject != "none" && g_config.inject != "drop-item" &&
      g_config.inject != "detach-sink") {
    std::fprintf(stderr, "unknown --inject %s\n", g_config.inject.c_str());
    return 2;
  }
  pb::Spans& spans = pb::Spans::instance();
  pb::g_names.host_op = spans.name_id("host_op");
  pb::g_names.check_now = spans.name_id("check_now");
  pb::g_names.waitfor = spans.name_id("waitfor_checkpoint");
  pb::g_names.lockorder = spans.name_id("lockorder_checkpoint");
  pb::g_names.tick = spans.name_id("check_tick");

  int rc = 2;
  if (g_config.mode == "prodcons") {
    rc = pb::run_prodcons();
  } else if (g_config.mode == "forks") {
    rc = pb::run_forks();
  } else if (g_config.mode == "ring") {
    rc = pb::run_ring();
  } else if (g_config.mode == "probes") {
    pb::Json out;
    pb::run_probes(out, g_config.seed, g_config.shim_rate);
    out.print();
    rc = 0;
  } else {
    std::fprintf(stderr, "unknown --mode %s\n", g_config.mode.c_str());
  }
  std::fflush(stdout);
  return rc;
}
