// The four benchmark workloads (see perfbench/README.md for why each was
// chosen).  A workload generates its inputs from the seed, then runs
// measured units: one unit is one PageRank or SUMMA job on a freshly
// loaded store, or one SSSP round (fresh store, loadGraph + initialize,
// then a fixed number of change batches).  Every unit checks its result
// against a serial reference and reports a digest and the exact engine
// counts that must repeat for a given seed.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// What a traced unit records into; null for untraced units.
struct Tracing {
  SpanLog& log;
  LayerProbe& probe;
  ripple::obs::Tracer& tracer;
  ripple::obs::MetricsRegistry& registry;
};

struct UnitResult {
  /// Store creation + load (+ initialize), one per store set up.
  std::vector<double> setupSeconds;
  double jobSeconds = 0;    // Wall of the measured calls.
  double jobCpuSeconds = 0; // Process user+sys CPU over the same calls.
  double virtualMakespan = 0;
  /// Per-update latencies: one per SSSP batch, one per job otherwise.
  std::vector<double> updateMs;

  std::uint64_t attempted = 0;  // Jobs or batches run.
  std::uint64_t failed = 0;     // Threw or disagreed with the reference.
  std::vector<std::string> errors;

  std::uint64_t digest = 0;             // Of the checked result.
  std::vector<std::uint64_t> exact;     // Counts that must repeat.

  /// Per-layer values read after a traced unit (counter deltas, store
  /// stats, SSSP splits); summed over units by the caller.
  std::map<std::string, double> layer;
};

/// Resolved configuration, printed with every run.
struct WorkloadConfig {
  std::string backend;
  std::uint32_t parts = 0;
  int threads = 0;
  std::size_t storeMemoryBytes = 0;  // 0 = unbounded / not applicable.
  std::string shape;                 // Input size, human-readable.
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual WorkloadConfig config() const = 0;

  /// Names of the counts in UnitResult::exact, in order.
  [[nodiscard]] virtual std::vector<std::string> exactNames() const = 0;

  /// Build inputs and serial references from the seed (untimed).
  virtual void generate(std::uint64_t seed) = 0;

  /// Run one measured unit.  Units with the same `round` see the same
  /// inputs, so their digests and exact counts must agree.
  virtual UnitResult runUnit(int round, Tracing* tracing) = 0;

  /// Serial baselines and kernel probes for the traced run's per-layer
  /// metrics (apps.*.serial_s, matrix.kernel_*).
  virtual void baselines(std::map<std::string, double>& layer) = 0;

  /// Fewest units a run makes, whatever --seconds says.
  [[nodiscard]] virtual int minUnits() const = 0;

  /// True when every unit sees the same inputs (PageRank, SUMMA); SSSP
  /// rounds each draw their own change batches.
  [[nodiscard]] virtual bool unitsRepeat() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Null for an unknown name.  `workDir` holds the durable store's files.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(
    const std::string& name, const std::string& workDir);

}  // namespace perfbench
