// Per-layer probes: each times calls into one layer's public functions from
// the benchmark's own code and reports a median over batches, so a single
// preempted batch cannot move the figure.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "interpose/runtime.hpp"
#include "interpose/synthetic_monitor.hpp"
#include "native.hpp"
#include "robmon.hpp"

namespace pb {
namespace {

using robmon::core::MonitorSpec;
using robmon::rt::RobustMonitor;
using robmon::rt::Status;
namespace util = robmon::util;

/// Median over `batches` of the mean ns per call of `per_batch` calls of
/// `call`; `between` runs untimed after every batch.
template <typename Call, typename Between>
double batched_ns(int batches, int per_batch, Call call, Between between) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < per_batch; ++i) call(i);
    samples.push_back(static_cast<double>(now_ns() - start) / per_batch);
    between();
  }
  return quantile(samples, 0.5);
}

template <typename Call>
double batched_ns(int batches, int per_batch, Call call) {
  return batched_ns(batches, per_batch, call, [] {});
}

std::atomic<std::uint64_t> g_sink{0};  // keeps probed results observable

void probe_pathexpr(Json& out) {
  const robmon::pathexpr::CallOrderSpec spec(
      MonitorSpec::allocator("p").effective_path_expression());
  robmon::pathexpr::Matcher matcher = spec.matcher();
  const std::string acquire = "Acquire";
  const std::string release = "Release";
  std::uint64_t accepted = 0;
  out.num("pathexpr.advance_ns", batched_ns(400, 1024, [&](int i) {
            accepted += static_cast<std::uint64_t>(
                matcher.advance((i & 1) != 0 ? release : acquire));
          }));
  g_sink += accepted;
}

void probe_event_log(Json& out) {
  robmon::trace::EventLog log(/*retain_history=*/false, /*shards=*/1);
  constexpr int kBatch = 512;
  std::vector<double> drain_ns;
  out.num("trace.append_ns",
          batched_ns(
              400, kBatch,
              [&](int i) {
                log.append(robmon::trace::EventRecord::enter(1, 0, true, i));
              },
              [&] {
                const std::int64_t start = now_ns();
                const auto drained = log.drain();
                drain_ns.push_back(static_cast<double>(now_ns() - start) /
                                   static_cast<double>(drained.size()));
              }));
  out.num("trace.drain_ns_per_event", quantile(drain_ns, 0.5));
}

void probe_detector(Json& out) {
  const MonitorSpec spec = MonitorSpec::allocator("idle");
  robmon::trace::SymbolTable symbols;
  robmon::core::CollectingSink sink;
  robmon::core::Detector detector(spec, symbols, sink);
  const robmon::trace::SchedulingState state;
  detector.initialize(state);
  const std::vector<robmon::trace::EventRecord> empty;
  out.num("core.check_idle_ns", batched_ns(400, 256, [&](int i) {
            g_sink += detector.check(empty, state, i).events;
          }));
  if (sink.count() != 0) out.integer("probe_errors.check_idle", 1);
}

void probe_recovery_decide(Json& out) {
  robmon::core::DeadlockCycle cycle;
  for (int t = 0; t < 3; ++t) {
    robmon::core::DeadlockCycle::Link link;
    link.pid = t + 1;
    link.monitor = static_cast<std::uint64_t>((t + 1) % 3 + 2);
    link.monitor_name = "ring-fork" + std::to_string((t + 1) % 3);
    link.cond = "available";
    link.blocked_since = 1000 + t;
    link.holder = (t + 1) % 3 + 1;
    link.held_since = 10 + t;
    link.blocked_ticket = static_cast<std::uint64_t>(10 + t);
    link.holder_ticket = static_cast<std::uint64_t>(20 + t);
    cycle.links.push_back(link);
  }
  const robmon::core::RecoveryPolicy policy;
  out.num("core.recovery_decide_ns", batched_ns(200, 64, [&](int) {
            g_sink += static_cast<std::uint64_t>(policy.decide(cycle).victim.pid);
          }));
}

double enter_exit_ns(robmon::rt::Instrumentation instrumentation) {
  robmon::core::CollectingSink sink;
  RobustMonitor::Options options;
  options.instrumentation = instrumentation;
  RobustMonitor monitor(MonitorSpec::manager("m"), sink, options);
  const std::string procedure = "Op";
  return batched_ns(
      400, 512,
      [&](int) {
        monitor.enter(1, procedure);
        monitor.exit(1);
      },
      [&] { monitor.check_now(); });
}

void probe_enter_exit(Json& out) {
  out.num("runtime.enter_exit_ns", enter_exit_ns(robmon::rt::Instrumentation::kFull));
  out.num("runtime.enter_exit_bare_ns",
          enter_exit_ns(robmon::rt::Instrumentation::kOff));
}

/// RobustMonitor::recovery_poison on a fork with one parked waiter.
void probe_poison(Json& out) {
  robmon::core::CollectingSink sink;
  RobustMonitor monitor(MonitorSpec::allocator("victim"), sink);
  robmon::wl::ResourceAllocator fork(monitor, 1);
  std::int64_t errors = fork.acquire(1) == Status::kOk ? 0 : 1;
  std::vector<double> samples;
  for (int rep = 0; rep < 40; ++rep) {
    Status status = Status::kOk;
    std::thread waiter([&] {
      pin_to_slot(1);
      status = fork.acquire(2);
    });
    while (monitor.snapshot().blocked_count() == 0) sleep_ns(20'000);
    const std::int64_t start = now_ns();
    monitor.recovery_poison();
    samples.push_back(static_cast<double>(now_ns() - start));
    waiter.join();
    if (status != Status::kRecoveryFault) ++errors;
    monitor.unpoison();
  }
  if (fork.release(1) != Status::kOk) ++errors;
  out.num("runtime.poison_ns", quantile(samples, 0.5));
  if (errors != 0) out.integer("probe_errors.poison", errors);
}

/// core::replay_trace (Algorithms 1-3 over every checkpoint segment) on the
/// exported trace of a short native prodcons run.
void probe_replay(Json& out, std::uint64_t seed) {
  robmon::core::CollectingSink sink;
  robmon::rt::CheckerPool::Options pool_options;
  pool_options.threads = 1;
  robmon::rt::CheckerPool pool(pool_options);
  MonitorSpec spec = MonitorSpec::coordinator("buf", kBufferCapacity);
  spec.check_period = 5 * util::kMillisecond;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  options.retain_trace = true;
  RobustMonitor monitor(spec, sink, options);
  robmon::wl::BoundedBuffer buffer(monitor, kBufferCapacity);
  pin_to_slot(kCheckerSlot);  // the pool worker inherits this CPU
  monitor.start_checking();
  pin_to_slot(0);
  constexpr int kItems = 20000;
  std::thread consumer([&] {
    pin_to_slot(1);
    std::int64_t item = 0;
    for (int i = 0; i < kItems; ++i) buffer.receive(2, &item);
  });
  Rng stream = item_stream(seed);
  for (int i = 0; i < kItems; ++i) buffer.send(1, next_item(stream));
  consumer.join();
  monitor.stop_checking();
  monitor.check_now();
  const robmon::trace::TraceFile file = monitor.export_trace();
  std::vector<double> samples;
  std::size_t reports = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t start = now_ns();
    const robmon::core::ReplayResult result =
        robmon::core::replay_trace(file, monitor.spec());
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(std::max<std::size_t>(1, result.events_processed)));
    reports = result.reports.size();
  }
  out.num("core.check_ns_per_event", quantile(samples, 0.5));
  if (reports != 0 || sink.count() != 0) {
    out.integer("probe_errors.replay", static_cast<std::int64_t>(reports + sink.count()));
  }
}

/// Pure adapter cost: one SyntheticMonitor acquire+unlock pair while a
/// drainer keeps the ring near empty.
void probe_push(Json& out) {
  using robmon::interpose::SyntheticMonitor;
  SyntheticMonitor monitor("probe", SyntheticMonitor::Kind::kMutex,
                           util::SteadyClock::instance(),
                           SyntheticMonitor::Config{});
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    pin_to_slot(kCheckerSlot);
    while (!stop.load()) {
      (void)monitor.drain_segment();
      sleep_ns(100'000);
    }
  });
  out.num("interpose.push_ns", batched_ns(400, 256, [&](int) {
            monitor.lock_acquired(1);
            monitor.unlocked(1);
          }));

  // Three producers on one monitor: wall time per pair each producer sees.
  constexpr int kPairs = 100'000;
  std::vector<double> contended;
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> ready{0};
    const auto produce = [&](robmon::Tid tid) {
      pin_to_slot(static_cast<int>(tid) - 1);
      ready.fetch_add(1);
      while (ready.load() < 3) {
      }
      for (int i = 0; i < kPairs; ++i) {
        monitor.lock_blocked(tid);
        monitor.lock_cancelled(tid);
      }
    };
    std::thread second(produce, 2);
    std::thread third(produce, 3);
    const std::int64_t start = now_ns();
    produce(1);
    second.join();
    third.join();
    contended.push_back(static_cast<double>(now_ns() - start) / kPairs);
  }
  stop.store(true);
  drainer.join();
  out.num("interpose.push_contended_ns", quantile(contended, 0.5));
  if (monitor.events_lost() != 0) out.integer("probe_errors.push", 1);
}

/// Share of pushes folded inline by the producer (ring full) at the default
/// ring size and the default 100 ms drain, driven at `rate` pairs/s.
void probe_backpressure(Json& out, double rate) {
  using robmon::interpose::SyntheticMonitor;
  SyntheticMonitor monitor("probe", SyntheticMonitor::Kind::kMutex,
                           util::SteadyClock::instance(),
                           SyntheticMonitor::Config{});
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    pin_to_slot(kCheckerSlot);
    while (!stop.load()) {
      sleep_ns(100'000'000);
      (void)monitor.drain_segment();
    }
  });
  const double pace_ns = 1e9 / std::max(rate, 1.0);
  const std::int64_t start = now_ns();
  std::int64_t pairs = 0;
  while (now_ns() - start < 300'000'000) {
    while (static_cast<double>(now_ns() - start) < pace_ns * static_cast<double>(pairs)) {
    }
    monitor.lock_acquired(1);
    monitor.unlocked(1);
    ++pairs;
  }
  stop.store(true);
  drainer.join();
  out.num("interpose.backpressure_frac",
          static_cast<double>(monitor.backpressure_syncs()) /
              static_cast<double>(2 * pairs));
  if (monitor.events_lost() != 0) out.integer("probe_errors.backpressure", 1);
}

/// Runtime::monitor_for: first sight (shadow creation) and lookup of an
/// address already shadowed, with 257 objects live.  The runtime is never
/// destroyed, exactly as in the shim (its pool keeps running to exit).
void probe_registry(Json& out) {
  using robmon::interpose::SyntheticMonitor;
  // The first shadow starts the runtime's pool worker, which inherits this
  // CPU; lookups then run on slot 0.
  pin_to_slot(kCheckerSlot);
  auto* runtime = new robmon::interpose::Runtime(robmon::interpose::RuntimeConfig{});
  static int objects[kForks + 1];  // the forks workload's mutexes, plus one
  std::vector<double> shadow;
  for (int& object : objects) {
    const std::int64_t start = now_ns();
    runtime->monitor_for(&object, SyntheticMonitor::Kind::kMutex);
    shadow.push_back(static_cast<double>(now_ns() - start));
  }
  out.num("interpose.shadow_ns", quantile(shadow, 0.5));
  pin_to_slot(0);
  out.num("interpose.lookup_ns", batched_ns(400, 256, [&](int i) {
            g_sink += reinterpret_cast<std::uintptr_t>(
                runtime->monitor_for(&objects[i], SyntheticMonitor::Kind::kMutex));
          }));
}

}  // namespace

void emit_layer_costs(Json& out, robmon::rt::CheckerPool& pool,
                      std::vector<std::unique_ptr<RobustMonitor>>& monitors) {
  std::vector<double> snapshot_ns;
  std::vector<robmon::core::WaitContribution> contributions;
  std::uint64_t id = 2;
  for (auto& monitor : monitors) {
    const std::int64_t start = now_ns();
    const robmon::trace::SchedulingState state = monitor->snapshot();
    snapshot_ns.push_back(static_cast<double>(now_ns() - start));
    contributions.push_back(robmon::core::make_wait_contribution(
        id++, monitor->spec().name, 0, state, monitor->symbols()));
  }
  for (int rep = 0; rep < 20; ++rep) {
    for (auto& monitor : monitors) {
      const std::int64_t start = now_ns();
      g_sink += monitor->snapshot().blocked_count();
      snapshot_ns.push_back(static_cast<double>(now_ns() - start));
    }
  }
  out.num("trace.snapshot_ns", quantile(snapshot_ns, 0.5));

  std::vector<double> waitfor_ns;
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<robmon::core::WaitContribution> copies = contributions;
    robmon::core::WaitForGraph graph;
    const std::int64_t start = now_ns();
    for (auto& contribution : copies) graph.update(std::move(contribution));
    g_sink += graph.find_cycles().size();
    waitfor_ns.push_back(static_cast<double>(now_ns() - start));
  }
  out.num("core.waitfor_pass_ns", quantile(waitfor_ns, 0.5));

  robmon::core::LockOrderGraph order;
  const std::vector<robmon::core::OrderEdge> edges = pool.lockorder_edges();
  order.restore(edges);
  std::vector<double> lockorder_ns;
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t start = now_ns();
    g_sink += order.find_cycles().size();
    lockorder_ns.push_back(static_cast<double>(now_ns() - start));
  }
  out.num("core.lockorder_pass_ns", quantile(lockorder_ns, 0.5));
  out.integer("core.lockorder_edges", static_cast<std::int64_t>(edges.size()));
}

void run_probes(Json& out, std::uint64_t seed, double shim_rate) {
  pin_to_slot(0);
  probe_pathexpr(out);
  probe_event_log(out);
  probe_detector(out);
  probe_recovery_decide(out);
  probe_enter_exit(out);
  probe_poison(out);
  probe_replay(out, seed);
  probe_push(out);
  probe_backpressure(out, shim_rate);
  probe_registry(out);
  out.num("rss_mb", max_rss_mb());
}

}  // namespace pb
