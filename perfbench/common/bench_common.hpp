// Shared helpers of the perfbench host programs: argument parsing, the
// seeded generator and the workload inputs drawn from it, resource usage, a
// JSON writer and the in-memory span recorder.  Header-only and free of
// robmon includes, so the raw host stays a plain pthread program.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  while (nanosleep(&ts, &ts) != 0) {
  }
}

/// --key value pairs; unknown keys are an error (exit 2).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) usage(argv[i]);
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0) usage(argv[argc - 1]);
  }
  std::string str(const std::string& key, const std::string& fallback) {
    used_.push_back(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::int64_t i64(const std::string& key, std::int64_t fallback) {
    const std::string text = str(key, std::to_string(fallback));
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') usage(text.c_str());
    return value;
  }
  double f64(const std::string& key, double fallback) {
    const std::string text = str(key, std::to_string(fallback));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') usage(text.c_str());
    return value;
  }
  /// Fails on any argument no str/i64/f64 call asked for.
  void finish() const {
    for (const auto& [key, value] : values_) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        usage(key.c_str());
      }
    }
  }

 private:
  [[noreturn]] static void usage(const char* bad) {
    std::fprintf(stderr, "bad argument: %s\n", bad);
    std::exit(2);
  }
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
};

/// SplitMix64: the only source of workload randomness; a stream is a pure
/// function of (seed, stream id).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// --- Workload inputs ---------------------------------------------------------
// Defined once here, so the raw/shim host and the native host see the same
// inputs for the same seed.

/// prodcons: buffer capacity, the producer's seeded item stream, the
/// end-of-stream marker and the item the drop-item negative control skips.
constexpr int kBufferCapacity = 8;
constexpr std::int64_t kEndOfStream = -1;
constexpr std::int64_t kDroppedItem = 1000;
inline Rng item_stream(std::uint64_t seed) { return Rng(seed, 1); }
/// The next item (non-negative, so it never reads as kEndOfStream).
inline std::int64_t next_item(Rng& stream) {
  return static_cast<std::int64_t>(stream.next() >> 1);
}

/// forks: thread t crosses pairs drawn from its own stream.
constexpr int kForks = 256;
constexpr int kForkThreads = 3;
inline Rng fork_stream(std::uint64_t seed, int thread) {
  return Rng(seed, 100 + static_cast<std::uint64_t>(thread));
}
struct ForkPair {
  int lo;
  int hi;
};
/// A uniformly drawn pair of distinct forks, lowest index first.
inline ForkPair next_fork_pair(Rng& stream) {
  const int a = static_cast<int>(stream.below(kForks));
  int b = static_cast<int>(stream.below(kForks - 1));
  if (b >= a) ++b;
  return ForkPair{std::min(a, b), std::max(a, b)};
}

/// The deadlock loop: 3 threads on a 3-fork ring.  Before each episode a
/// thread sleeps a pause uniform in [0, kPauseMaxNs), one wait-for period
/// of the loop, so its cycles close at a uniform phase of the checkpoint.
/// Chunk k of a run draws its own stream, so pooled chunks sample
/// independent phases.
constexpr int kRing = 3;
constexpr std::int64_t kPauseMaxNs = 10'000'000;
inline Rng pause_stream(std::uint64_t seed, int chunk) {
  return Rng(seed, 7 + 1000 * static_cast<std::uint64_t>(chunk));
}

/// Thread placement.  Every thread of every process is pinned: on the
/// reference VM the kernel at times stopped spreading new threads, so
/// unpinned workload threads all ran on their creator's CPU, and
/// throughput dropped by up to 4x for minutes at a time.
///   * Workload thread t runs on CPU slot t.
///   * robmon's worker threads inherit the mask of the thread that starts
///     them, so robmon is brought up from kCheckerSlot (the set-up time
///     covers that) and gets that CPU to itself.
///   * The deadlock loop is the exception: its whole process, worker
///     included, runs on one CPU, slot k for chunk k of a run.  Spread
///     over idle CPUs, the victim's wake-up waited on the hypervisor
///     waking an idle virtual CPU, which doubled recover latency for
///     minutes at a time on a shared host.  Rotating the slot keeps one
///     virtual CPU's state from setting a whole run's figures: with every
///     chunk on one slot, the loop's CPU per episode read 40% low for two
///     runs in a row while every other figure held.
constexpr int kCheckerSlot = 3;

/// Pin the calling thread to the `slot`-th CPU of the process's allowed
/// set (wrapping on smaller machines); threads it creates afterwards
/// inherit the pin.
inline void pin_to_slot(int slot) {
  // The set as the process started, read before the first pin narrows the
  // calling thread's own mask.
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed_cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) allowed_cpus.push_back(cpu);
      }
    }
    return allowed_cpus;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Process CPU seconds, every thread (robmon's workers included).
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

inline double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Value at quantile q of `values` (nearest rank; sorts in place).
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// One flat JSON object written as one line on stdout at exit.
class Json {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    add(key, buf);
  }
  void integer(const std::string& key, std::int64_t value) {
    add(key, std::to_string(value));
  }
  void samples(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    char buf[64];
    for (double value : values) {
      std::snprintf(buf, sizeof(buf), list.size() > 1 ? ", %.9g" : "%.9g", value);
      list += buf;
    }
    add(key, list + "]");
  }
  void text(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    add(key, quoted + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

/// In-memory span recorder.  Each thread appends to its own log (no
/// sharing on the hot path); spans nest through a per-thread stack, so a
/// span's self time is its duration minus the durations of its direct
/// children.  Logs are bounded: past `kMaxSpans` per thread, spans are
/// counted as dropped instead of stored.  Everything is aggregated at exit.
class Spans {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 19;

  struct Record {
    std::uint32_t name;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  struct ThreadLog {
    std::vector<Record> spans;
    std::vector<std::int32_t> stack;
    std::uint64_t dropped = 0;
  };

  static Spans& instance() {
    static Spans spans;
    return spans;
  }

  std::uint32_t name_id(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.emplace_back(new ThreadLog);
      logs_.back()->spans.reserve(1 << 14);
      log = logs_.back();
    }
    return *log;
  }

  /// Durations and self times per span name, in ns.
  struct Summary {
    std::vector<double> duration;
    std::vector<double> self;
  };
  std::map<std::string, Summary> summarize() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Summary> out;
    for (ThreadLog* log : logs_) {
      std::vector<std::int64_t> child_ns(log->spans.size(), 0);
      for (const Record& r : log->spans) {
        if (r.parent >= 0 && r.end > 0) {
          child_ns[static_cast<std::size_t>(r.parent)] += r.end - r.start;
        }
      }
      for (std::size_t i = 0; i < log->spans.size(); ++i) {
        const Record& r = log->spans[i];
        if (r.end == 0) continue;
        Summary& s = out[names_[r.name]];
        s.duration.push_back(static_cast<double>(r.end - r.start));
        s.self.push_back(static_cast<double>(r.end - r.start - child_ns[i]));
      }
    }
    return out;
  }

  std::uint64_t dropped() {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (ThreadLog* log : logs_) total += log->dropped;
    return total;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<ThreadLog*> logs_;  // never freed: threads may still exit
};

/// True on every kSampleEvery-th call on the calling thread while `trace`
/// is set.  The per-call spans of the host programs are sampled, so a
/// thread's log stays below kMaxSpans over a whole traced run and the
/// percentiles describe all of it (run.py fails a run that drops spans).
constexpr std::uint32_t kSampleEvery = 16;
inline bool sampled(bool trace) {
  thread_local std::uint32_t calls = 0;
  return trace && ++calls % kSampleEvery == 0;
}

/// RAII span; a disabled span costs one branch.
class Span {
 public:
  Span(bool enabled, std::uint32_t name) {
    if (!enabled) return;
    Spans::ThreadLog& log = Spans::instance().local();
    if (log.spans.size() >= Spans::kMaxSpans) {
      ++log.dropped;
      return;
    }
    log_ = &log;
    index_ = static_cast<std::int32_t>(log.spans.size());
    const std::int32_t parent = log.stack.empty() ? -1 : log.stack.back();
    log.spans.push_back(Spans::Record{name, parent, 0, 0});
    log.stack.push_back(index_);
    log.spans.back().start = now_ns();
  }
  ~Span() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(index_)].end = now_ns();
    log_->stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans::ThreadLog* log_ = nullptr;
  std::int32_t index_ = -1;
};

/// Write p50/p99 of every span name's duration and self time into `out`
/// as span.<name>.{p50,p99,self_p50,count}.
inline void emit_spans(Json& out) {
  for (auto& [name, summary] : Spans::instance().summarize()) {
    const std::string key = "span." + name;
    out.integer(key + ".count", static_cast<std::int64_t>(summary.duration.size()));
    out.num(key + ".p50", quantile(summary.duration, 0.50));
    out.num(key + ".p99", quantile(summary.duration, 0.99));
    out.num(key + ".self_p50", quantile(summary.self, 0.50));
  }
  out.integer("span_dropped", static_cast<std::int64_t>(Spans::instance().dropped()));
}

}  // namespace pb
