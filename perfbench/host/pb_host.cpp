// pb_host — the raw and shim modes of every perfbench workload.
//
// A plain pthread program with no robmon includes: run bare it is the raw
// baseline, run under LD_PRELOAD=librobmon_preload.so it is the shim mode
// (same binary, same inputs).  Workloads:
//
//   prodcons  1 producer + 1 consumer on one bounded buffer of capacity 8
//             (one mutex, two condvars); op = one Send or Receive call.
//   forks     3 threads, 256 one-unit forks (mutexes); a crossing locks a
//             seeded random pair lowest index first, then unlocks both;
//             op = one crossing.
//   ring      3 threads on a 3-fork ring; each episode rendezvouses, takes
//             its two forks lowest index first (so it cannot deadlock),
//             releases them and rendezvouses again; op = one episode.  This
//             is the deadlock-free counterpart of the native deadlock-loop,
//             run back to back (no pause), so its rate is set by the
//             barrier and fork calls the shim adapts.
//
// Output: one JSON line on stdout (ops, timed window, CPU, set-up time,
// peak RSS, error count, and with --trace 1 the sampled spans around the
// host's pthread_mutex_lock and pthread_cond_wait calls).
#include <pthread.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string inject;
};

Config g_config;
std::uint32_t g_lock_span = 0;
std::uint32_t g_wait_span = 0;

void lock(pthread_mutex_t* mutex) {
  pb::Span span(pb::sampled(g_config.trace), g_lock_span);
  pthread_mutex_lock(mutex);
}

void cond_wait(pthread_cond_t* cond, pthread_mutex_t* mutex) {
  pb::Span span(pb::sampled(g_config.trace), g_wait_span);
  pthread_cond_wait(cond, mutex);
}

struct Result {
  std::int64_t ops = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  std::int64_t errors = 0;
};

/// Times the timed window [construction, stop()].
class Window {
 public:
  Window() : start_(pb::now_ns()), cpu_start_(pb::process_cpu_s()) {}
  void stop(Result& result) const {
    result.elapsed_s = static_cast<double>(pb::now_ns() - start_) / 1e9;
    result.cpu_s = pb::process_cpu_s() - cpu_start_;
  }

 private:
  std::int64_t start_;
  double cpu_start_;
};

std::int64_t deadline_after(double seconds) {
  return pb::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

// --- prodcons -----------------------------------------------------------------

struct Buffer {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t not_full = PTHREAD_COND_INITIALIZER;
  pthread_cond_t not_empty = PTHREAD_COND_INITIALIZER;
  std::int64_t items[pb::kBufferCapacity] = {};
  int head = 0;
  int count = 0;

  void send(std::int64_t item) {
    lock(&mu);
    while (count == pb::kBufferCapacity) cond_wait(&not_full, &mu);
    items[(head + count) % pb::kBufferCapacity] = item;
    ++count;
    pthread_cond_signal(&not_empty);
    pthread_mutex_unlock(&mu);
  }
  std::int64_t receive() {
    lock(&mu);
    while (count == 0) cond_wait(&not_empty, &mu);
    const std::int64_t item = items[head];
    head = (head + 1) % pb::kBufferCapacity;
    --count;
    pthread_cond_signal(&not_full);
    pthread_mutex_unlock(&mu);
    return item;
  }
};

Result run_prodcons() {
  Result result;
  static Buffer buffer;
  pb::pin_to_slot(pb::kCheckerSlot);
  const std::int64_t setup_start = pb::now_ns();
  lock(&buffer.mu);
  pthread_cond_signal(&buffer.not_full);
  pthread_cond_signal(&buffer.not_empty);
  pthread_mutex_unlock(&buffer.mu);
  result.setup_s = static_cast<double>(pb::now_ns() - setup_start) / 1e9;

  pb::pin_to_slot(0);
  const Window window;
  std::int64_t received = 0;
  std::int64_t mismatches = 0;
  std::thread consumer([&] {
    pb::pin_to_slot(1);
    pb::Rng expected = pb::item_stream(g_config.seed);
    for (;;) {
      const std::int64_t item = buffer.receive();
      if (item == pb::kEndOfStream) break;
      if (item != pb::next_item(expected)) ++mismatches;
      ++received;
    }
  });
  pb::Rng stream = pb::item_stream(g_config.seed);
  const std::int64_t deadline = deadline_after(g_config.seconds);
  std::int64_t sent = 0;
  while ((sent & 255) != 0 || pb::now_ns() < deadline) {
    const std::int64_t item = pb::next_item(stream);
    if (!(g_config.inject == "drop-item" && sent == pb::kDroppedItem)) {
      buffer.send(item);
    }
    ++sent;
  }
  buffer.send(pb::kEndOfStream);
  consumer.join();
  window.stop(result);
  result.ops = 2 * sent;
  result.errors = mismatches + (received == sent ? 0 : 1);
  return result;
}

// --- forks --------------------------------------------------------------------

/// A fork and the thread the program believes holds it: claiming it with a
/// compare-exchange under the mutex checks mutual exclusion in every mode.
struct alignas(64) Fork {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  std::atomic<int> owner{-1};

  bool claim(int t) {
    int expected = -1;
    return owner.compare_exchange_strong(expected, t);
  }
  void unclaim() { owner.store(-1); }
};

/// One condvar ping-pong of `rounds` round trips between two threads, so
/// the traced shim run of a workload without condvars still samples
/// pthread_cond_wait.
void cond_probe(int rounds) {
  static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  static pthread_cond_t cond = PTHREAD_COND_INITIALIZER;
  static int turn = 0;
  std::thread other([&] {
    pb::pin_to_slot(1);
    for (int i = 0; i < rounds; ++i) {
      lock(&mu);
      while (turn != 1) cond_wait(&cond, &mu);
      turn = 0;
      pthread_cond_signal(&cond);
      pthread_mutex_unlock(&mu);
    }
  });
  for (int i = 0; i < rounds; ++i) {
    lock(&mu);
    turn = 1;
    pthread_cond_signal(&cond);
    while (turn != 0) cond_wait(&cond, &mu);
    pthread_mutex_unlock(&mu);
  }
  other.join();
}

Result run_forks() {
  Result result;
  static Fork forks[pb::kForks];
  pb::pin_to_slot(pb::kCheckerSlot);
  const std::int64_t setup_start = pb::now_ns();
  for (Fork& fork : forks) {
    lock(&fork.mu);
    pthread_mutex_unlock(&fork.mu);
  }
  result.setup_s = static_cast<double>(pb::now_ns() - setup_start) / 1e9;

  const Window window;
  const std::int64_t deadline = deadline_after(g_config.seconds);
  std::atomic<std::int64_t> crossings{0};
  std::atomic<std::int64_t> errors{0};
  const auto body = [&](int t) {
    pb::pin_to_slot(t);
    pb::Rng pairs = pb::fork_stream(g_config.seed, t);
    std::int64_t done = 0;
    std::int64_t bad = 0;
    while ((done & 63) != 0 || pb::now_ns() < deadline) {
      const pb::ForkPair pair = pb::next_fork_pair(pairs);
      Fork& lo = forks[pair.lo];
      Fork& hi = forks[pair.hi];
      lock(&lo.mu);
      lock(&hi.mu);
      if (!lo.claim(t)) ++bad;
      if (!hi.claim(t)) ++bad;
      hi.unclaim();
      lo.unclaim();
      pthread_mutex_unlock(&hi.mu);
      pthread_mutex_unlock(&lo.mu);
      ++done;
    }
    crossings.fetch_add(done);
    errors.fetch_add(bad);
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < pb::kForkThreads; ++t) threads.emplace_back(body, t);
  body(0);
  for (std::thread& thread : threads) thread.join();
  window.stop(result);
  result.ops = crossings.load();
  result.errors = errors.load();
  if (g_config.trace) cond_probe(4096);
  return result;
}

// --- ring ---------------------------------------------------------------------

/// Generation barrier on one mutex + condvar; the last arrival of each
/// generation decides whether the loop stops.
struct Barrier {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cond = PTHREAD_COND_INITIALIZER;
  int arrived = 0;
  std::uint64_t generation = 0;
  bool stop = false;

  bool arrive(std::int64_t deadline) {
    lock(&mu);
    const std::uint64_t mine = generation;
    if (++arrived == pb::kRing) {
      arrived = 0;
      stop = pb::now_ns() >= deadline;
      ++generation;
      pthread_cond_broadcast(&cond);
    } else {
      while (generation == mine) cond_wait(&cond, &mu);
    }
    const bool result = stop;
    pthread_mutex_unlock(&mu);
    return result;
  }
};

Result run_ring() {
  Result result;
  static Fork forks[pb::kRing];
  static Barrier barrier;
  // Placed as the throughput workloads are: thread t on slot t, the shim's
  // worker on slot 3.  Back to back on one CPU, as the native loop runs,
  // the episode rate swung by 1.5x from one process to the next with the
  // order in which the scheduler ran the three threads.
  pb::pin_to_slot(pb::kCheckerSlot);
  const std::int64_t setup_start = pb::now_ns();
  for (Fork& fork : forks) {
    lock(&fork.mu);
    pthread_mutex_unlock(&fork.mu);
  }
  lock(&barrier.mu);
  pthread_cond_signal(&barrier.cond);
  pthread_mutex_unlock(&barrier.mu);
  result.setup_s = static_cast<double>(pb::now_ns() - setup_start) / 1e9;

  const Window window;
  const std::int64_t deadline = deadline_after(g_config.seconds);
  std::atomic<std::int64_t> errors{0};
  std::int64_t episodes = 0;
  const auto body = [&](int t) {
    pb::pin_to_slot(t);
    const int left = t;
    const int right = (t + 1) % pb::kRing;
    std::int64_t done = 0;
    for (;;) {
      if (barrier.arrive(deadline)) break;
      Fork& lo = forks[std::min(left, right)];
      Fork& hi = forks[std::max(left, right)];
      lock(&lo.mu);
      lock(&hi.mu);
      if (!lo.claim(t) || !hi.claim(t)) errors.fetch_add(1);
      hi.unclaim();
      lo.unclaim();
      pthread_mutex_unlock(&hi.mu);
      pthread_mutex_unlock(&lo.mu);
      ++done;
      barrier.arrive(deadline);
    }
    if (t == 0) episodes = done;
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < pb::kRing; ++t) threads.emplace_back(body, t);
  body(0);
  for (std::thread& thread : threads) thread.join();
  window.stop(result);
  result.ops = episodes;
  result.errors = errors.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args(argc, argv);
  g_config.workload = args.str("workload", "");
  g_config.seed = static_cast<std::uint64_t>(args.i64("seed", 1));
  g_config.seconds = args.f64("seconds", 1.0);
  g_config.trace = args.i64("trace", 0) != 0;
  g_config.inject = args.str("inject", "none");
  args.finish();
  if (g_config.inject != "none" && g_config.inject != "drop-item") {
    std::fprintf(stderr, "unknown --inject %s\n", g_config.inject.c_str());
    return 2;
  }
  g_lock_span = pb::Spans::instance().name_id("lock");
  g_wait_span = pb::Spans::instance().name_id("cond_wait");

  Result result;
  if (g_config.workload == "prodcons") {
    result = run_prodcons();
  } else if (g_config.workload == "forks") {
    result = run_forks();
  } else if (g_config.workload == "ring") {
    result = run_ring();
  } else {
    std::fprintf(stderr, "unknown --workload %s\n", g_config.workload.c_str());
    return 2;
  }

  pb::Json out;
  out.text("workload", g_config.workload);
  out.integer("seed", static_cast<std::int64_t>(g_config.seed));
  out.integer("ops", result.ops);
  out.num("elapsed_s", result.elapsed_s);
  out.num("cpu_s", result.cpu_s);
  out.num("setup_s", result.setup_s);
  out.num("rss_mb", pb::max_rss_mb());
  out.integer("errors", result.errors);
  if (g_config.trace) pb::emit_spans(out);
  out.print();
  std::fflush(stdout);
  return 0;
}
