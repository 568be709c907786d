// In-memory span log for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (the timing decorators in layers.h and the workload code
// in workloads.cpp); nothing inside the library is instrumented here.
// Each span carries a name, start, end, the enclosing span on the same
// thread (0 for none) and a run id.  A span opened on a thread with no
// enclosing span (a store op on an engine pool thread, say) is attached at
// analysis time to the innermost span that contains its interval.
//
// Recording goes to per-thread buffers, so concurrent layer calls do not
// serialize on a lock; buffers are read only after the traced work has
// joined its threads.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // Same-thread enclosing span; 0 = none.
  std::uint32_t name = 0;    // Index into SpanLog::names().
  std::uint32_t run = 0;
  double start = 0;          // Seconds since the log's epoch.
  double end = 0;
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Seconds since the log was created.
  [[nodiscard]] double now() const;

  /// Stable id for a span name; intern once, then record by id.
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] std::vector<std::string> names() const;

  /// Tags spans recorded from now on (one id per measured unit of work).
  void setRun(std::uint32_t run) { run_.store(run, std::memory_order_relaxed); }

  /// Record a finished span from outside any scope (e.g. imported engine
  /// phases).  Parent 0: attached by interval at analysis time.
  void add(std::uint32_t name, double start, double end);

  /// All spans recorded so far; call only when no thread is recording.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// RAII span: start on construction, end and record on destruction.
  /// A null log makes it a no-op.  Nested scopes on one thread record the
  /// enclosing scope as parent.
  class Scope {
   public:
    Scope(SpanLog* log, std::uint32_t name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds elapsed since the scope opened (0 for a null log).
    [[nodiscard]] double elapsed() const;

   private:
    SpanLog* log_;
    SpanRecord rec_;
    std::uint64_t savedParent_ = 0;
  };

 private:
  std::vector<SpanRecord>& threadBuffer();

  const std::uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint32_t> run_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::deque<std::vector<SpanRecord>> buffers_;  // One per recording thread.
};

/// Give every span without a same-thread parent the innermost span whose
/// interval contains it, among spans whose name id is flagged in
/// `isContainer` (spans that run other layers' work: workload calls,
/// engine phases, store calls that run callbacks).
void attachOrphans(std::vector<SpanRecord>& spans,
                   const std::vector<bool>& isContainer);

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover, summed over spans of that name.
[[nodiscard]] std::map<std::string, double> selfTimeByName(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& names);

/// Write up to `limit` spans as JSON Lines to `path`; returns false on an
/// I/O error.
bool writeSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<std::string>& names, std::size_t limit);

}  // namespace perfbench
