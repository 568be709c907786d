#include "spans.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> gGeneration{1};

/// Per-thread recording state, valid for the log whose generation it
/// carries (a new log invalidates every thread's cached buffer).
struct ThreadState {
  std::uint64_t generation = 0;
  std::vector<SpanRecord>* buffer = nullptr;
  std::uint64_t current = 0;  // Innermost open scope on this thread.
};
thread_local ThreadState tls;

}  // namespace

SpanLog::SpanLog()
    : generation_(gGeneration.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint32_t SpanLog::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

std::vector<std::string> SpanLog::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

std::vector<SpanRecord>& SpanLog::threadBuffer() {
  if (tls.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    tls = ThreadState{generation_, &buffers_.back(), 0};
  }
  return *tls.buffer;
}

void SpanLog::add(std::uint32_t name, double start, double end) {
  SpanRecord rec;
  rec.id = nextId_.fetch_add(1, std::memory_order_relaxed);
  rec.name = name;
  rec.run = run_.load(std::memory_order_relaxed);
  rec.start = start;
  rec.end = end;
  threadBuffer().push_back(rec);
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

SpanLog::Scope::Scope(SpanLog* log, std::uint32_t name) : log_(log) {
  if (log_ == nullptr) {
    return;
  }
  log_->threadBuffer();
  rec_.id = log_->nextId_.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = tls.current;
  rec_.name = name;
  rec_.run = log_->run_.load(std::memory_order_relaxed);
  savedParent_ = tls.current;
  tls.current = rec_.id;
  rec_.start = log_->now();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) {
    return;
  }
  rec_.end = log_->now();
  tls.current = savedParent_;
  log_->threadBuffer().push_back(rec_);
}

double SpanLog::Scope::elapsed() const {
  return log_ == nullptr ? 0.0 : log_->now() - rec_.start;
}

void attachOrphans(std::vector<SpanRecord>& spans,
                   const std::vector<bool>& isContainer) {
  std::vector<std::size_t> containers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name < isContainer.size() && isContainer[spans[i].name]) {
      containers.push_back(i);
    }
  }
  std::sort(containers.begin(), containers.end(),
            [&](std::size_t a, std::size_t b) {
              return spans[a].start < spans[b].start;
            });
  // Scanning back from the latest container that starts no later than the
  // orphan finds the innermost one first when containers nest; the bound
  // keeps a span outside every container from scanning them all.
  constexpr std::size_t kMaxScan = 4096;
  for (SpanRecord& s : spans) {
    if (s.parent != 0) {
      continue;
    }
    auto it = std::upper_bound(
        containers.begin(), containers.end(), s.start,
        [&](double start, std::size_t c) { return start < spans[c].start; });
    for (std::size_t scanned = 0;
         it != containers.begin() && scanned < kMaxScan; ++scanned) {
      const SpanRecord& c = spans[*--it];
      if (c.id == s.id || c.end < s.end) {
        continue;
      }
      // An identical interval is outer only if it was opened first.
      if (c.start == s.start && c.end == s.end && c.id > s.id) {
        continue;
      }
      s.parent = c.id;
      break;
    }
  }
}

std::map<std::string, double> selfTimeByName(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& names) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (auto it = index.find(s.parent); it != index.end()) {
      children[it->second].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;  // Union of child intervals, clipped to s.
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, s.end);
      if (to > from) {
        covered += to - from;
      }
      reach = std::max(reach, std::min(end, s.end));
    }
    self[names.at(s.name)] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool writeSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<std::string>& names, std::size_t limit) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << std::setprecision(9);
  const std::size_t n = std::min(limit, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << names.at(s.name) << "\",\"run\":" << s.run
        << ",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
