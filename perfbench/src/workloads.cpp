#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/random.h"
#include "common/stats.h"
#include "ebsp/engine.h"
#include "graph/graph_gen.h"
#include "kvstore/log_store.h"
#include "kvstore/store_factory.h"
#include "matrix/dense.h"
#include "matrix/summa.h"

namespace perfbench {

namespace kv = ripple::kv;
namespace ebsp = ripple::ebsp;
namespace apps = ripple::apps;
namespace graph = ripple::graph;
namespace matrix = ripple::matrix;
using ripple::Stopwatch;

namespace {

/// Engine worker threads for every workload (the 4-core host's nproc).
constexpr int kThreads = 4;

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  return ripple::summarize(v).p50();
}

/// A span scope that is a no-op for untraced units.
class LayerSpan {
 public:
  LayerSpan(Tracing* t, const char* name)
      : scope_(t ? &t->log : nullptr, t ? t->log.intern(name) : 0) {}

 private:
  SpanLog::Scope scope_;
};

struct StoreShape {
  kv::StoreBackend backend = kv::StoreBackend::kPartitioned;
  std::uint32_t parts = 6;
  std::size_t memoryBudgetBytes = 0;
};

/// One unit's store: the backend itself, and what the workload talks to
/// (the backend wrapped in timing decorators when traced).
struct StoreHandle {
  kv::KVStorePtr raw;
  std::shared_ptr<kv::LogStore> log;  // Set for the log backend.
  kv::KVStorePtr store;
};

StoreHandle openStore(const StoreShape& shape, const std::string& workDir,
                      Tracing* t) {
  static std::atomic<int> opened{0};
  StoreHandle h;
  if (shape.backend == kv::StoreBackend::kLog) {
    // An explicit ephemeral directory inside the work dir: the store's
    // files never leave the checkout and are deleted with the store.
    kv::LogStore::Options o;
    o.path = workDir + "/store-" + std::to_string(getpid()) + "-" +
             std::to_string(opened++);
    o.ephemeral = true;
    o.memoryBudgetBytes = shape.memoryBudgetBytes;
    h.log = kv::LogStore::open(std::move(o));
    h.raw = h.log;
  } else {
    h.raw = kv::makeStore(shape.backend, shape.parts);
  }
  h.store = t != nullptr ? TimingStore::wrap(h.raw, t->probe) : h.raw;
  return h;
}

ebsp::EngineOptions engineOptions(const StoreHandle& h, const StoreShape& s,
                                  Tracing* t) {
  ebsp::EngineOptions o;
  o.storeBackend = s.backend;
  o.storePath = h.log ? h.log->storePath() : std::string();
  o.storeMemoryBytes = s.memoryBudgetBytes;
  o.threads = kThreads;
  if (t != nullptr) {
    o.tracer = &t->tracer;
    o.metrics = &t->registry;
    o.queuing = std::make_shared<TimingQueuing>(
        ripple::mq::makeMemQueuing(h.store), t->probe);
  }
  return o;
}

/// Per-layer values a traced unit contributes, read when the unit ends:
/// the unit's fresh store's counters and log-store stats, and the engine
/// registry.  They cover the whole unit, set-up included.
void readLayers(UnitResult& u, const StoreHandle& h, const Tracing& t) {
  const kv::StoreMetrics& m = h.raw->metrics();
  u.layer["kvstore.local_ops"] = static_cast<double>(m.localOps.load());
  u.layer["kvstore.remote_ops"] = static_cast<double>(m.remoteOps.load());
  u.layer["kvstore.bytes_marshalled"] =
      static_cast<double>(m.bytesMarshalled.load());
  u.layer["kvstore.scans"] = static_cast<double>(m.scans.load());
  if (h.log) {
    const kv::LogStore::Stats s = h.log->stats();
    u.layer["kvstore.log.compactions"] = static_cast<double>(s.compactions);
    u.layer["kvstore.log.evictions"] = static_cast<double>(s.evictions);
    u.layer["kvstore.log.segment_read_hits"] =
        static_cast<double>(s.segmentReadHits);
    u.layer["kvstore.log.segment_read_misses"] =
        static_cast<double>(s.segmentReadMisses);
    u.layer["kvstore.log.resident_peak_bytes"] =
        static_cast<double>(s.residentPeakBytes);
    u.layer["kvstore.log.log_bytes"] = static_cast<double>(s.logBytes);
  }
  static const std::pair<const char*, const char*> kCounters[] = {
      {"ebsp.steps", "ebsp.steps"},
      {"ebsp.invocations", "ebsp.invocations"},
      {"ebsp.messages_sent", "ebsp.messages_sent"},
      {"ebsp.messages_delivered", "ebsp.messages_delivered"},
      {"ebsp.combiner_calls", "ebsp.combiner_calls"},
      {"combine.in", "ebsp.combine_in"},
      {"combine.out", "ebsp.combine_out"},
      {"ebsp.spills", "ebsp.spills"},
      {"ebsp.spill_bytes", "ebsp.spill_bytes"},
      {"ebsp.state_reads", "ebsp.state_reads"},
      {"ebsp.state_writes", "ebsp.state_writes"},
      {"ebsp.barriers", "ebsp.barriers"},
      {"ebsp.checkpoints", "ebsp.checkpoints"},
      {"ebsp.stolen_messages", "ebsp.stolen_messages"},
      {"exec.steal_count", "common.exec.steal_count"},
  };
  for (const auto& [from, to] : kCounters) {
    if (const ripple::obs::Counter* c = t.registry.findCounter(from)) {
      u.layer[to] = static_cast<double>(c->value());
    }
  }
}

/// Write back what a unit's durable store left behind (its deleted
/// directory included) before the next unit starts timing, so one unit's
/// writeback does not stall the next one's fsyncs.
void settleDisk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

void fail(UnitResult& u, std::string why) {
  ++u.failed;
  u.errors.push_back(std::move(why));
}

// ---------------------------------------------------------------------
// PageRank (Table I): direct variant, and MapReduce emulation on the
// durable log backend with per-step checkpoints.

struct PageRankShape {
  std::size_t vertices = 0;
  std::uint64_t edges = 0;
  bool mapReduce = false;
  bool checkpoints = false;
  StoreShape store;
};

class PageRankWorkload : public Workload {
 public:
  static constexpr int kIterations = 10;
  static constexpr double kDamping = 0.85;
  /// Largest |rank - reference| accepted: ranks are ~1/|V|, and the
  /// engine's combining order differs from the serial sum only in
  /// rounding.
  static constexpr double kTolerance = 1e-12;
  static constexpr int kSetups = 3;  // Per unit.

  PageRankWorkload(PageRankShape shape, std::string workDir)
      : shape_(shape), workDir_(std::move(workDir)) {}

  [[nodiscard]] WorkloadConfig config() const override {
    return {kv::storeBackendName(shape_.store.backend), shape_.store.parts,
            kThreads, shape_.store.memoryBudgetBytes,
            std::to_string(shape_.vertices) + "V/" +
                std::to_string(shape_.edges) + "E x" +
                std::to_string(kIterations) + " iterations" +
                (shape_.checkpoints ? ", checkpoint every step" : "")};
  }

  [[nodiscard]] std::vector<std::string> exactNames() const override {
    std::vector<std::string> names = {"ebsp.steps", "ebsp.invocations",
                                      "ebsp.messages_sent",
                                      "ebsp.combiner_calls"};
    if (durable()) {
      names.emplace_back("kvstore.log.last_committed_epoch");
    }
    return names;
  }

  void generate(std::uint64_t seed) override {
    graph::PowerLawOptions gen;
    gen.vertices = shape_.vertices;
    gen.edges = shape_.edges;
    gen.seed = seed;
    graph_ = graph::generatePowerLaw(gen);
    settle();
    Stopwatch serial;
    reference_ = apps::referencePageRank(graph_, kDamping, kIterations);
    serialSeconds_ = serial.elapsedSeconds();
  }

  UnitResult runUnit(int /*round*/, Tracing* t) override {
    UnitResult u;
    u.attempted = 1;
    try {
      // Set up kSetups stores and run the job on the last one: one
      // set-up per job would leave too few samples for a steady setup_s.
      StoreHandle h;
      std::unique_ptr<ebsp::Engine> engine;
      for (int i = 0; i < kSetups; ++i) {
        engine.reset();
        h = StoreHandle{};
        settle();
        Stopwatch setup;
        LayerSpan span(t, "apps.setup");
        h = openStore(shape_.store, workDir_, t);
        apps::loadPageRankGraph(*h.store, kTable, graph_, shape_.store.parts);
        ebsp::EngineOptions eo = engineOptions(h, shape_.store, t);
        eo.checkpoint.enabled = shape_.checkpoints;
        eo.checkpoint.interval = 1;
        engine = std::make_unique<ebsp::Engine>(h.store, eo);
        u.setupSeconds.push_back(setup.elapsedSeconds());
      }

      apps::PageRankOptions options;
      options.iterations = kIterations;
      options.damping = kDamping;
      options.graphTable = kTable;
      options.mapReduceVariant = shape_.mapReduce;
      const double cpu0 = cpuSeconds();
      Stopwatch job;
      apps::PageRankResult r;
      {
        LayerSpan span(t, "apps.run_pagerank");
        r = apps::runPageRank(*engine, options);
      }
      u.jobSeconds = job.elapsedSeconds();
      u.jobCpuSeconds = cpuSeconds() - cpu0;
      u.updateMs = {u.jobSeconds * 1e3};
      u.virtualMakespan = r.job.virtualMakespan;
      const ebsp::EngineMetrics& m = r.job.metrics;
      u.exact = {m.steps, m.computeInvocations, m.messagesSent,
                 m.combinerCalls};
      if (h.log) {
        // One durable epoch per checkpoint: a decorator that hid
        // DurableStore from the engine would change this count.
        u.exact.push_back(h.log->lastCommittedEpoch());
        if (h.log->stats().evictions == 0) {
          fail(u, "pagerank: the resident budget never evicted");
        }
      }
      if (t != nullptr) {
        readLayers(u, h, *t);
      }

      const std::vector<double> ranks =
          apps::readRanks(*h.raw, kTable, shape_.vertices);
      double worst = 0;
      for (std::size_t v = 0; v < ranks.size(); ++v) {
        worst = std::max(worst, std::fabs(ranks[v] - reference_[v]));
      }
      if (ranks.size() != reference_.size() || !(worst <= kTolerance)) {
        fail(u, "pagerank: max |rank - reference| = " +
                    std::to_string(worst));
      }
      u.digest = fnv1a(ranks.data(), ranks.size() * sizeof(double));
    } catch (const std::exception& e) {
      fail(u, std::string("pagerank: ") + e.what());
    }
    settle();
    return u;
  }

  void baselines(std::map<std::string, double>& layer) override {
    layer["apps.pagerank.serial_s"] = serialSeconds_;
  }

  [[nodiscard]] int minUnits() const override { return 3; }
  [[nodiscard]] bool unitsRepeat() const override { return true; }

 private:
  static constexpr const char* kTable = "pr_graph";

  [[nodiscard]] bool durable() const {
    return shape_.store.backend == kv::StoreBackend::kLog;
  }

  /// Untimed: flush what earlier durable stores left before timing more.
  void settle() const {
    if (durable()) {
      settleDisk(workDir_);
    }
  }

  PageRankShape shape_;
  std::string workDir_;
  graph::Graph graph_;
  std::vector<double> reference_;
  double serialSeconds_ = 0;
};

// ---------------------------------------------------------------------
// SUMMA (§V-B): 3x3 grid, no-sync strategy.

class SummaWorkload : public Workload {
 public:
  static constexpr std::size_t kGrid = 3;
  static constexpr std::size_t kBlock = 512;

  explicit SummaWorkload(std::string workDir) : workDir_(std::move(workDir)) {
    store_.parts = kGrid * kGrid;
  }

  [[nodiscard]] WorkloadConfig config() const override {
    return {kv::storeBackendName(store_.backend), store_.parts, kThreads, 0,
            std::to_string(kGrid) + "x" + std::to_string(kGrid) +
                " grid of " + std::to_string(kBlock) + "^2 blocks, no-sync"};
  }

  [[nodiscard]] std::vector<std::string> exactNames() const override {
    return {"ebsp.messages_sent", "matrix.multiplies"};
  }

  void generate(std::uint64_t seed) override {
    ripple::Rng rng(seed);
    a_ = matrix::BlockMatrix(kGrid, kBlock);
    b_ = matrix::BlockMatrix(kGrid, kBlock);
    a_.fillRandom(rng);
    b_.fillRandom(rng);
    Stopwatch serial;
    expected_ = matrix::BlockMatrix::multiplyReference(a_, b_);
    serialSeconds_ = serial.elapsedSeconds();
  }

  UnitResult runUnit(int /*round*/, Tracing* t) override {
    UnitResult u;
    u.attempted = 1;
    try {
      Stopwatch setup;
      StoreHandle h;
      ebsp::EngineOptions eo;
      {
        LayerSpan span(t, "apps.setup");
        h = openStore(store_, workDir_, t);
        eo = engineOptions(h, store_, t);
        eo.mode = ebsp::ExecutionMode::kNoSync;
      }
      ebsp::Engine engine(h.store, eo);
      u.setupSeconds.push_back(setup.elapsedSeconds());

      matrix::SummaOptions options;
      options.synchronized = false;
      options.parts = store_.parts;
      const double cpu0 = cpuSeconds();
      Stopwatch job;
      matrix::SummaResult r;
      {
        LayerSpan span(t, "apps.run_summa");
        r = matrix::runSumma(engine, a_, b_, options);
      }
      u.jobSeconds = job.elapsedSeconds();
      u.jobCpuSeconds = cpuSeconds() - cpu0;
      u.updateMs = {u.jobSeconds * 1e3};
      u.virtualMakespan = r.job.virtualMakespan;
      // runSumma throws unless every component did exactly kGrid
      // multiplies, so the multiply count is exact by construction.
      u.exact = {r.job.metrics.messagesSent, kGrid * kGrid * kGrid};
      if (t != nullptr) {
        readLayers(u, h, *t);
        u.layer["matrix.multiplies"] = kGrid * kGrid * kGrid;
      }
      if (!r.c.approxEqual(expected_, 1e-9)) {
        fail(u, "summa: product differs from multiplyReference");
      }
      for (std::size_t i = 0; i < kGrid; ++i) {
        for (std::size_t j = 0; j < kGrid; ++j) {
          const auto& data = r.c.block(i, j).data();
          u.digest = fnv1a(data.data(), data.size() * sizeof(double),
                           u.digest == 0 ? 1469598103934665603ULL : u.digest);
        }
      }
    } catch (const std::exception& e) {
      fail(u, std::string("summa: ") + e.what());
    }
    return u;
  }

  void baselines(std::map<std::string, double>& layer) override {
    layer["apps.summa.serial_s"] = serialSeconds_;
    // One block multiply at the workload's block size, single-threaded,
    // outside any job.
    matrix::DenseBlock acc(kBlock, kBlock);
    Stopwatch kernel;
    acc.multiplyAccumulate(a_.block(0, 0), b_.block(0, 0));
    const double seconds = kernel.elapsedSeconds();
    const double flops = 2.0 * kBlock * kBlock * kBlock;
    layer["matrix.kernel_gflops"] = flops / seconds / 1e9;
    layer["matrix.kernel_s"] = seconds * kGrid * kGrid * kGrid;
  }

  [[nodiscard]] int minUnits() const override { return 5; }
  [[nodiscard]] bool unitsRepeat() const override { return true; }

 private:
  std::string workDir_;
  StoreShape store_;
  matrix::BlockMatrix a_, b_, expected_;
  double serialSeconds_ = 0;
};

// ---------------------------------------------------------------------
// Incremental SSSP (§V-C): selective enablement under change batches.

class SsspWorkload : public Workload {
 public:
  static constexpr std::size_t kVertices = 25'000;
  static constexpr std::uint64_t kEdges = 450'000;
  static constexpr int kBatches = 50;  // Per round.
  static constexpr std::size_t kChanges = 1000;  // Per batch.

  explicit SsspWorkload(std::string workDir) : workDir_(std::move(workDir)) {}

  [[nodiscard]] WorkloadConfig config() const override {
    return {kv::storeBackendName(store_.backend), store_.parts, kThreads, 0,
            std::to_string(kVertices) + "V/" + std::to_string(kEdges) +
                "E undirected, " + std::to_string(kBatches) + " batches x " +
                std::to_string(kChanges) + " changes per round"};
  }

  [[nodiscard]] std::vector<std::string> exactNames() const override {
    // effective_changes is the benchmark's own count; the other three are
    // the engine's, summed over the round's SsspUpdateStats.
    return {"apps.sssp.effective_changes", "ebsp.steps", "ebsp.invocations",
            "ebsp.messages_sent"};
  }

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    graph::PowerLawOptions gen;
    gen.vertices = kVertices;
    gen.edges = kEdges;
    gen.undirected = true;
    gen.seed = seed;
    graph_ = graph::generatePowerLaw(gen);
  }

  UnitResult runUnit(int round, Tracing* t) override {
    UnitResult u;
    ripple::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(round) + 1);
    graph::Graph current = graph_;  // Kept in step with the driver.
    std::uint64_t effective = 0;
    std::uint64_t steps = 0;
    std::uint64_t invocations = 0;
    std::uint64_t messages = 0;
    std::vector<double> structuralMs;
    std::vector<double> jobMs;
    std::vector<double> cpuSecs;
    try {
      Stopwatch setup;
      StoreHandle h;
      ebsp::EngineOptions eo;
      {
        LayerSpan span(t, "apps.setup");
        h = openStore(store_, workDir_, t);
        eo = engineOptions(h, store_, t);
      }
      ebsp::Engine engine(h.store, eo);
      apps::SsspOptions options;
      options.source = 0;
      options.parts = store_.parts;
      options.selective = true;
      apps::SsspDriver driver(engine, options);
      {
        LayerSpan span(t, "apps.setup");
        driver.loadGraph(graph_);
        driver.initialize();
      }
      u.setupSeconds.push_back(setup.elapsedSeconds());

      for (int b = 0; b < kBatches; ++b) {
        const auto batch =
            graph::randomChangeBatch(kVertices, kChanges, 1.8, rng);
        effective += graph::applyChanges(current, batch).size();
        ++u.attempted;
        const double cpu0 = cpuSeconds();
        Stopwatch wall;
        apps::SsspUpdateStats s;
        {
          LayerSpan span(t, "apps.sssp.apply_batch");
          s = driver.applyBatch(batch);
        }
        const double seconds = wall.elapsedSeconds();
        cpuSecs.push_back(cpuSeconds() - cpu0);
        u.updateMs.push_back(seconds * 1e3);
        structuralMs.push_back((seconds - s.elapsedSeconds) * 1e3);
        jobMs.push_back(s.elapsedSeconds * 1e3);
        u.virtualMakespan += s.virtualMakespan;
        steps += s.steps;
        invocations += s.invocations;
        messages += s.messages;
      }
      // The measured call is one applyBatch: a round's sum would carry
      // every host slowdown during the round.
      u.jobSeconds = median(u.updateMs) / 1e3;
      u.jobCpuSeconds = median(cpuSecs);
      if (t != nullptr) {
        readLayers(u, h, *t);
      }

      // Check the last batch against the benchmark's own BFS.
      const std::vector<std::int32_t> dist = driver.distances(kVertices);
      Stopwatch bfsWatch;
      const std::vector<std::int32_t> bfs = bfsHops(current, options.source);
      const double bfsSeconds = bfsWatch.elapsedSeconds();
      std::size_t wrong = 0;
      for (std::size_t v = 0; v < kVertices; ++v) {
        const std::int32_t want = bfs[v] < 0 ? apps::kSsspInf : bfs[v];
        wrong += dist[v] != want ? 1 : 0;
      }
      if (wrong != 0) {
        fail(u, "sssp: " + std::to_string(wrong) +
                    " distances differ from BFS after round " +
                    std::to_string(round));
      }
      u.digest = fnv1a(dist.data(), dist.size() * sizeof(std::int32_t));
      u.exact = {effective, steps, invocations, messages};
      if (t != nullptr) {
        u.layer["apps.sssp.bfs_s"] = bfsSeconds;
        u.layer["apps.sssp.structural_p50_ms"] = median(structuralMs);
        u.layer["apps.sssp.job_p50_ms"] = median(jobMs);
        u.layer["apps.sssp.effective_changes"] =
            static_cast<double>(effective);
      }
    } catch (const std::exception& e) {
      fail(u, std::string("sssp: ") + e.what());
    }
    return u;
  }

  void baselines(std::map<std::string, double>& /*layer*/) override {}

  [[nodiscard]] int minUnits() const override { return 4; }
  [[nodiscard]] bool unitsRepeat() const override { return false; }

 private:
  /// Serial BFS hop counts from `source`; -1 = unreachable.
  static std::vector<std::int32_t> bfsHops(const graph::Graph& g,
                                           graph::VertexId source) {
    std::vector<std::int32_t> dist(g.vertexCount(), -1);
    std::vector<graph::VertexId> frontier{source};
    dist[source] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const graph::VertexId u = frontier[head];
      for (const graph::VertexId v : g.adj[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    return dist;
  }

  std::string workDir_;
  StoreShape store_;
  std::uint64_t seed_ = 0;
  graph::Graph graph_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "pagerank-direct", "pagerank-mr-durable", "sssp-incremental",
      "summa-nosync"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::string& workDir) {
  if (name == "pagerank-direct") {
    PageRankShape s;
    s.vertices = 26'400;
    s.edges = 1'736'794;
    return std::make_unique<PageRankWorkload>(s, workDir);
  }
  if (name == "pagerank-mr-durable") {
    PageRankShape s;
    s.vertices = 6'600;
    s.edges = 434'199;
    s.mapReduce = true;
    s.checkpoints = true;
    s.store.backend = kv::StoreBackend::kLog;
    s.store.memoryBudgetBytes = 16U << 20;
    return std::make_unique<PageRankWorkload>(s, workDir);
  }
  if (name == "sssp-incremental") {
    return std::make_unique<SsspWorkload>(workDir);
  }
  if (name == "summa-nosync") {
    return std::make_unique<SummaWorkload>(workDir);
  }
  return nullptr;
}

}  // namespace perfbench
