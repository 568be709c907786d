// ripple_perfbench: runs one benchmark workload and prints its metrics.
//
//   ripple_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir>
//
// Untraced (--trace 0) runs measure the end-to-end metrics with no
// decorators and no engine tracer.  Traced (--trace 1) runs alternate an
// untraced and a traced unit on the same inputs, check that both give the
// same digest and exact counts (the decorators' transparency self-test),
// and report per-layer metrics plus the tracing overhead.  The last line
// of standard output is the result object; the line before it records the
// resolved configuration.  See perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ranked_mutex.h"  // RIPPLE_RANK_CHECKS, as compiled.
#include "common/stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using ripple::Stopwatch;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workDir;
};

bool parseArgs(int argc, char** argv, Args& args) {
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      haveSeconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = value == "1";
      haveTrace = value == "0" || value == "1";
    } else if (key == "--work-dir") {
      args.workDir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && haveSeed && haveSeconds &&
         haveTrace && !args.workDir.empty();
}

/// RIPPLE_* variables silently change backends, thread counts, budgets
/// and cost models inside the library; a benchmark run refuses them.
std::vector<std::string> rippleEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RIPPLE_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      found.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<std::size_t>(eq - *e));
    }
  }
  return found;
}

/// Restart the kernel's peak-RSS mark, so the peak excludes input
/// generation; false when the kernel does not support it.
bool resetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peakRssMb(bool resetWorked) {
  if (resetWorked) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A unit whose CPUs lost more than this share of their time to the
/// hypervisor (steal time) measured the host, not the program: its
/// timings are left out of the end-to-end metrics while any clean unit
/// remains.  A run makes extra units, for at most kMaxExtraSeconds, to
/// replace them.
constexpr double kMaxStealShare = 0.05;
constexpr double kMaxExtraSeconds = 8;

/// Steal time so far, summed over all CPUs, in seconds; 0 when
/// /proc/stat cannot be read.
double stealSeconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  f >> cpu;
  for (double& x : fields) {
    f >> x;
  }
  return f && cpu == "cpu"
             ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK))
             : 0.0;
}

double percentile(const std::vector<double>& v, double q) {
  return ripple::summarize(v).percentile(q);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  std::ostringstream out;
  out.precision(15);
  out << v;
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------
// Exact-count guard across runs: the first run of a binary with a seed
// records each round's digest and exact counts; later runs of the same
// binary with that seed must match.  Records are keyed by a hash of the
// binary, so a changed program starts a fresh record instead of being
// judged against another program's counts.

using Fingerprint = std::vector<std::uint64_t>;  // digest, then counts.

/// FNV-1a over the running executable's bytes, as 16 hex digits.
std::string binaryHash() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 1469598103934665603ULL;
  while (f.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         f.gcount() > 0) {
    for (std::streamsize i = 0; i < f.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

Fingerprint fingerprint(const UnitResult& u) {
  Fingerprint f{u.digest};
  f.insert(f.end(), u.exact.begin(), u.exact.end());
  return f;
}

std::string describe(const Fingerprint& f) {
  std::string s;
  for (const std::uint64_t x : f) {
    s += (s.empty() ? "" : " ") + std::to_string(x);
  }
  return s;
}

std::map<int, Fingerprint> loadFingerprints(const std::string& path) {
  std::map<int, Fingerprint> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    int round = 0;
    if (!(in >> round)) {
      continue;
    }
    Fingerprint fp;
    std::uint64_t x = 0;
    while (in >> x) {
      fp.push_back(x);
    }
    out[round] = fp;
  }
  return out;
}

void saveFingerprints(const std::string& path,
                      const std::map<int, Fingerprint>& prints) {
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  {
    std::ofstream f(tmp);
    for (const auto& [round, fp] : prints) {
      f << round << ' ' << describe(fp) << '\n';
    }
  }
  std::filesystem::rename(tmp, path);
}

// ---------------------------------------------------------------------
// Traced-run analysis.

/// Move the engine's spans for one unit into the span log and fold its
/// phase totals into the unit's per-layer values.  The synthesized
/// zero-duration spill spans are skipped: spill work is reported only as
/// ebsp.spills / ebsp.spill_bytes.
void importEngineSpans(ripple::obs::Tracer& tracer, SpanLog& log,
                       double offset, UnitResult& u) {
  using ripple::obs::Phase;
  // Step wall time: first to last span of one step of one job.  A load
  // span opens each job, so spans are grouped per job in record order.
  std::map<std::pair<int, int>, std::pair<double, double>> steps;
  int job = 0;
  for (const ripple::obs::Span& s : tracer.spans()) {
    if (s.phase == Phase::kSpill) {
      continue;
    }
    const std::string name =
        std::string("ebsp.") + ripple::obs::phaseName(s.phase);
    const double start = s.start + offset;
    const double end = start + s.duration;
    log.add(log.intern(name), start, end);
    if (s.phase == Phase::kCompute || s.phase == Phase::kCollect ||
        s.phase == Phase::kBarrier || s.phase == Phase::kCheckpoint) {
      u.layer[name + "_s"] += s.duration;
    }
    job += s.phase == Phase::kLoad ? 1 : 0;
    if (s.step > 0) {
      auto [it, fresh] =
          steps.emplace(std::make_pair(job, s.step), std::make_pair(start, end));
      if (!fresh) {
        it->second.first = std::min(it->second.first, start);
        it->second.second = std::max(it->second.second, end);
      }
    }
  }
  tracer.clear();
  std::vector<double> stepMs;
  for (const auto& [key, span] : steps) {
    stepMs.push_back((span.second - span.first) * 1e3);
  }
  if (!stepMs.empty()) {
    u.layer["ebsp.step_p50_ms"] = percentile(stepMs, 0.5);
    u.layer["ebsp.step_max_ms"] =
        *std::max_element(stepMs.begin(), stepMs.end());
  }
}

/// The per-layer metrics a traced run reports, in output order.  Layers a
/// workload does not exercise report 0 (see README.md's mapping table).
std::vector<std::pair<std::string, std::string>> perLayerCatalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"common.exec.steal_count", "count"},
  };
  for (const char* n :
       {"steps", "invocations", "messages_sent", "messages_delivered",
        "combiner_calls", "combine_in", "combine_out", "spills"}) {
    c.emplace_back(std::string("ebsp.") + n, "count");
  }
  c.emplace_back("ebsp.spill_bytes", "bytes");
  for (const char* n : {"state_reads", "state_writes", "barriers",
                        "checkpoints", "stolen_messages"}) {
    c.emplace_back(std::string("ebsp.") + n, "count");
  }
  for (const char* n : {"compute_s", "collect_s", "barrier_s", "checkpoint_s",
                        "self_s"}) {
    c.emplace_back(std::string("ebsp.") + n, "s");
  }
  c.emplace_back("ebsp.step_p50_ms", "ms");
  c.emplace_back("ebsp.step_max_ms", "ms");
  for (const char* op : {"get", "put", "put_batch", "erase", "drain_part",
                         "enumerate", "process_parts", "run_in_parts"}) {
    c.emplace_back(std::string("kvstore.") + op + ".n", "count");
    c.emplace_back(std::string("kvstore.") + op + ".s", "s");
  }
  c.insert(c.end(), {{"kvstore.bytes_in", "bytes"},
                     {"kvstore.bytes_out", "bytes"},
                     {"kvstore.local_ops", "count"},
                     {"kvstore.remote_ops", "count"},
                     {"kvstore.bytes_marshalled", "bytes"},
                     {"kvstore.scans", "count"},
                     {"kvstore.self_s", "s"},
                     {"kvstore.log.commit.n", "count"},
                     {"kvstore.log.commit_p50_ms", "ms"},
                     {"kvstore.log.commit_p95_ms", "ms"},
                     {"kvstore.log.compactions", "count"},
                     {"kvstore.log.evictions", "count"},
                     {"kvstore.log.segment_read_hits", "count"},
                     {"kvstore.log.segment_read_misses", "count"},
                     {"kvstore.log.resident_peak_bytes", "bytes"},
                     {"kvstore.log.log_bytes", "bytes"},
                     {"mq.put.n", "count"},
                     {"mq.put.s", "s"},
                     {"mq.read.n", "count"},
                     {"mq.read_wait_s", "s"},
                     {"mq.read_timeouts", "count"},
                     {"mq.steals", "count"},
                     {"mq.backlog_max", "count"},
                     {"mq.self_s", "s"},
                     {"sim.virtual_makespan_s", "s"},
                     {"sim.virtual_makespan_spread", "ratio"},
                     {"matrix.multiplies", "count"},
                     {"matrix.kernel_gflops", "GFLOP/s"},
                     {"matrix.kernel_s", "s"},
                     {"apps.pagerank.serial_s", "s"},
                     {"apps.summa.serial_s", "s"},
                     {"apps.sssp.bfs_s", "s"},
                     {"apps.sssp.structural_p50_ms", "ms"},
                     {"apps.sssp.job_p50_ms", "ms"},
                     {"apps.sssp.effective_changes", "count"},
                     {"apps.self_s", "s"},
                     {"trace.job_s", "s"},
                     {"trace.untraced_job_s", "s"},
                     {"trace.overhead_ratio", "ratio"},
                     {"trace.spans", "count"}});
  return c;
}

/// Span-derived per-layer values: op counts and busy seconds, commit
/// latency percentiles, and self time per layer.  Totals are divided by
/// the number of traced units.
void spanMetrics(SpanLog& log, double units,
                 std::map<std::string, double>& layer,
                 std::vector<SpanRecord>& spans,
                 std::vector<std::string>& names) {
  spans = log.spans();
  names = log.names();
  std::vector<bool> container(names.size(), false);
  std::vector<bool> appsName(names.size(), false);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    appsName[i] = n.rfind("apps.", 0) == 0;
    container[i] = appsName[i] || n.rfind("ebsp.", 0) == 0 ||
                   n == "kvstore.run_in_parts" ||
                   n == "kvstore.process_parts" || n == "kvstore.enumerate";
  }
  // A store call made on the client thread from inside the engine has the
  // workload call as its same-thread parent; re-attach it by interval so
  // it lands under the engine phase that made it.
  std::unordered_map<std::uint64_t, std::uint32_t> nameOf;
  for (const SpanRecord& s : spans) {
    nameOf.emplace(s.id, s.name);
  }
  for (SpanRecord& s : spans) {
    if (s.parent != 0 && appsName[nameOf[s.parent]] && !appsName[s.name]) {
      s.parent = 0;
    }
  }
  attachOrphans(spans, container);

  std::map<std::string, std::pair<double, double>> byName;  // n, seconds
  std::vector<double> commitMs;
  for (const SpanRecord& s : spans) {
    auto& [n, secs] = byName[names[s.name]];
    n += 1;
    secs += s.end - s.start;
    if (names[s.name] == "kvstore.log.commit") {
      commitMs.push_back((s.end - s.start) * 1e3);
    }
  }
  for (const char* op : {"get", "put", "put_batch", "erase", "drain_part",
                         "enumerate", "process_parts", "run_in_parts"}) {
    const auto& [n, secs] = byName[std::string("kvstore.") + op];
    layer[std::string("kvstore.") + op + ".n"] = n / units;
    layer[std::string("kvstore.") + op + ".s"] = secs / units;
  }
  layer["kvstore.log.commit.n"] = byName["kvstore.log.commit"].first / units;
  if (!commitMs.empty()) {
    layer["kvstore.log.commit_p50_ms"] = percentile(commitMs, 0.5);
    layer["kvstore.log.commit_p95_ms"] = percentile(commitMs, 0.95);
  }
  layer["mq.put.n"] = byName["mq.put"].first / units;
  layer["mq.put.s"] = byName["mq.put"].second / units;
  layer["mq.read.n"] = byName["mq.read"].first / units;
  layer["mq.read_wait_s"] = byName["mq.read"].second / units;

  for (const auto& [name, self] : selfTimeByName(spans, names)) {
    const std::string layerName = name.substr(0, name.find('.'));
    layer[layerName + ".self_s"] += self / units;
  }
  layer["trace.spans"] = static_cast<double>(spans.size());
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.workDir);
  if (!workload) {
    std::cerr << "unknown workload '" << args.workload << "'; expected one of:";
    for (const auto& n : workloadNames()) {
      std::cerr << ' ' << n;
    }
    std::cerr << '\n';
    return 2;
  }
  std::filesystem::create_directories(args.workDir + "/counts");
  std::filesystem::create_directories(args.workDir + "/traces");

  Stopwatch generation;
  workload->generate(args.seed);
  const double generationSeconds = generation.elapsedSeconds();
  const bool rssReset = resetPeakRss();

  SpanLog log;
  LayerProbe probe(log);
  ripple::obs::Tracer tracer;
  const double tracerOffset = log.now() - tracer.elapsedSeconds();

  std::vector<UnitResult> plain;   // Untraced units.
  std::vector<UnitResult> traced;  // Traced units (trace runs only).
  std::vector<int> plainRounds;
  std::vector<std::string> problems;
  std::vector<double> plainSteal;  // Hypervisor steal share per unit.
  const int needed = args.trace ? 2 : workload->minUnits();
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  Stopwatch measured;
  for (int i = 0;; ++i) {
    const auto done = static_cast<int>(plain.size());
    const auto clean = static_cast<int>(std::count_if(
        plainSteal.begin(), plainSteal.end(),
        [](double share) { return share <= kMaxStealShare; }));
    const double elapsed = measured.elapsedSeconds();
    if ((clean >= needed && elapsed >= args.seconds) ||
        (done >= needed && elapsed >= args.seconds + kMaxExtraSeconds)) {
      break;
    }
    const int round = workload->unitsRepeat() ? 0 : i;
    const double steal0 = stealSeconds();
    Stopwatch unitWall;
    plain.push_back(workload->runUnit(round, nullptr));
    plainSteal.push_back((stealSeconds() - steal0) /
                         (unitWall.elapsedSeconds() * cpus));
    plainRounds.push_back(round);
    if (args.trace) {
      ripple::obs::MetricsRegistry registry;
      Tracing tracing{log, probe, tracer, registry};
      log.setRun(static_cast<std::uint32_t>(i + 1));
      UnitResult t = workload->runUnit(round, &tracing);
      importEngineSpans(tracer, log, tracerOffset, t);
      if (fingerprint(t) != fingerprint(plain.back())) {
        problems.push_back("traced unit " + std::to_string(i) +
                           " fingerprint [" + describe(fingerprint(t)) +
                           "] != untraced [" +
                           describe(fingerprint(plain.back())) + "]");
      }
      traced.push_back(std::move(t));
    }
  }
  const double peakRss = peakRssMb(rssReset);

  // Exact counts: within the run, then against earlier runs of this
  // binary with this seed.
  const std::string countsPath = args.workDir + "/counts/" + args.workload +
                                 "-" + std::to_string(args.seed) + "-" +
                                 binaryHash() + ".txt";
  std::map<int, Fingerprint> known = loadFingerprints(countsPath);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plain[i].failed != 0) {
      continue;
    }
    const Fingerprint fp = fingerprint(plain[i]);
    auto [it, fresh] = known.emplace(plainRounds[i], fp);
    if (!fresh && it->second != fp) {
      problems.push_back("round " + std::to_string(plainRounds[i]) +
                         " fingerprint [" + describe(fp) +
                         "] != recorded [" + describe(it->second) + "]");
    }
  }
  if (problems.empty()) {
    saveFingerprints(countsPath, known);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> jobS, cpuS, setupS, updateMs, vtAll;
  for (const auto* units : {&plain, &traced}) {
    for (const UnitResult& u : *units) {
      attempted += u.attempted;
      failed += u.failed;
      problems.insert(problems.end(), u.errors.begin(), u.errors.end());
      vtAll.push_back(u.virtualMakespan);
    }
  }
  // End-to-end metrics come from the units the hypervisor left alone,
  // however few: a disturbed unit is slower by several times its steal
  // share.  With fewer than `needed` clean units the run is flagged
  // host_disturbed, and with none it reports the least-disturbed unit.
  const auto cleanUnits = static_cast<std::size_t>(std::count_if(
      plainSteal.begin(), plainSteal.end(),
      [](double share) { return share <= kMaxStealShare; }));
  const bool hostDisturbed = cleanUnits < static_cast<std::size_t>(needed);
  const double stealCutoff =
      cleanUnits > 0 || plainSteal.empty()
          ? kMaxStealShare
          : *std::min_element(plainSteal.begin(), plainSteal.end());
  std::size_t used = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plainSteal[i] > stealCutoff) {
      continue;
    }
    ++used;
    const UnitResult& u = plain[i];
    jobS.push_back(u.jobSeconds);
    cpuS.push_back(u.jobCpuSeconds);
    setupS.insert(setupS.end(), u.setupSeconds.begin(), u.setupSeconds.end());
    updateMs.insert(updateMs.end(), u.updateMs.begin(), u.updateMs.end());
  }

  std::vector<Metric> metrics;
  std::string tracePath;
  if (!args.trace) {
    metrics = {
        {"job_s", percentile(jobS, 0.5), "s"},
        {"job_cpu_s", percentile(cpuS, 0.5), "s"},
        {"update_p50_ms", percentile(updateMs, 0.5), "ms"},
        {"setup_s", percentile(setupS, 0.5), "s"},
        {"peak_rss_mb", peakRss, "MiB"},
    };
  } else {
    const double units = static_cast<double>(traced.size());
    std::map<std::string, double> layer;
    for (const UnitResult& u : traced) {
      for (const auto& [k, v] : u.layer) {
        layer[k] += v / units;
      }
    }
    layer["kvstore.bytes_in"] = static_cast<double>(probe.bytesIn.load()) / units;
    layer["kvstore.bytes_out"] = static_cast<double>(probe.bytesOut.load()) / units;
    layer["mq.read_timeouts"] = static_cast<double>(probe.readTimeouts.load()) / units;
    layer["mq.steals"] = static_cast<double>(probe.steals.load()) / units;
    layer["mq.backlog_max"] = static_cast<double>(probe.backlogMax.load());
    std::vector<double> tracedJob, tracedVt;
    for (const UnitResult& u : traced) {
      tracedJob.push_back(u.jobSeconds);
      tracedVt.push_back(u.virtualMakespan);
    }
    const double vtMedian = percentile(vtAll, 0.5);
    layer["sim.virtual_makespan_s"] = percentile(tracedVt, 0.5);
    layer["sim.virtual_makespan_spread"] =
        vtMedian > 0 ? (*std::max_element(vtAll.begin(), vtAll.end()) -
                        *std::min_element(vtAll.begin(), vtAll.end())) /
                           vtMedian
                     : 0.0;
    layer["trace.job_s"] = percentile(tracedJob, 0.5);
    layer["trace.untraced_job_s"] = percentile(jobS, 0.5);
    layer["trace.overhead_ratio"] =
        layer["trace.untraced_job_s"] > 0
            ? layer["trace.job_s"] / layer["trace.untraced_job_s"]
            : 0.0;
    workload->baselines(layer);
    std::vector<SpanRecord> spans;
    std::vector<std::string> names;
    spanMetrics(log, units, layer, spans, names);
    tracePath = args.workDir + "/traces/" + args.workload + "-" +
                std::to_string(args.seed) + ".jsonl";
    if (!writeSpans(tracePath, spans, names, 200'000)) {
      problems.push_back("could not write " + tracePath);
    }
    for (const auto& [name, unit] : perLayerCatalog()) {
      metrics.push_back({name, layer[name], unit});
    }
  }

  // The configuration line: what ran, resolved, with sample counts.
  const WorkloadConfig cfg = workload->config();
  std::ostringstream info;
  info << "{\"info\": {\"workload\": " << jsonString(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"backend\": " << jsonString(cfg.backend)
       << ", \"parts\": " << cfg.parts << ", \"threads\": " << cfg.threads
       << ", \"store_memory_bytes\": " << cfg.storeMemoryBytes
       << ", \"shape\": " << jsonString(cfg.shape)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"rank_checks\": " << (RIPPLE_RANK_CHECKS ? "true" : "false")
       << ", \"hw_threads\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"generation_s\": " << jsonNumber(generationSeconds)
       << ", \"units\": " << plain.size() << ", \"units_used\": " << used
       << ", \"host_disturbed\": " << (hostDisturbed ? "true" : "false")
       << ", \"unit_steal_share\": [";
  for (std::size_t i = 0; i < plainSteal.size(); ++i) {
    info << (i ? ", " : "") << jsonNumber(plainSteal[i]);
  }
  info << "]"
       << ", \"traced_units\": " << traced.size()
       << ", \"update_samples\": " << updateMs.size()
       << ", \"update_p95_ms\": " << jsonNumber(percentile(updateMs, 0.95))
       << ", \"unit_job_s\": [";
  for (std::size_t i = 0; i < jobS.size(); ++i) {
    info << (i ? ", " : "") << jsonNumber(jobS[i]);
  }
  info << "]"
       << ", \"ops\": " << attempted << ", \"ops_failed\": " << failed
       << ", \"digest\": " << (plain.empty() ? 0 : plain.front().digest)
       << ", \"exact\": {";
  const std::vector<std::string> exactNames = workload->exactNames();
  for (std::size_t i = 0; i < exactNames.size(); ++i) {
    info << (i ? ", " : "") << jsonString(exactNames[i]) << ": "
         << (plain.empty() || i >= plain.front().exact.size()
                 ? 0
                 : plain.front().exact[i]);
  }
  info << "}, \"trace_file\": " << jsonString(tracePath)
       << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    info << (i ? ", " : "") << jsonString(problems[i]);
  }
  info << "]}}";
  std::cout << info.str() << '\n';

  const bool correct = problems.empty() && failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << jsonString(m.name)
              << ": {\"value\": " << jsonNumber(m.value)
              << ", \"unit\": " << jsonString(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::cerr << "usage: ripple_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n";
    return 2;
  }
  const std::vector<std::string> env = perfbench::rippleEnvironment();
  if (!env.empty()) {
    std::cerr << "ripple_perfbench: refusing to run with";
    for (const auto& name : env) {
      std::cerr << ' ' << name;
    }
    std::cerr << " set; they change what the library runs\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "ripple_perfbench: " << e.what() << '\n';
    return 1;
  }
}
