#pragma once
// The four perfbench workloads behind one interface. main.cpp owns the
// protocol (repeated set-up, the closed loop, the result line); a workload
// owns its inputs, its untimed verification, one timed unit, and the traced
// per-layer run.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What the verification pass produced: per-session means of the simulated
/// outputs, and a digest of every output. They depend only on the seed and
/// the simulator, never on how many units a run timed.
struct SimulatedMeans {
  double qoe_mean = 0.0;              ///< MOS
  double energy_j_per_session = 0.0;  ///< J
  /// s; initial stall (startup delay) plus rebuffering stalls: the time a
  /// viewer waits for video. Startup keeps it above 0 on workloads whose
  /// sessions never rebuffer.
  double stall_s_per_session = 0.0;
  std::uint64_t digest = 0;  ///< Digest of the verification pass's outputs
};

/// Per-layer results of a traced run: metric name -> value. Names missing
/// from the map are layers this workload's path never reaches; main.cpp
/// reports them as 0.
struct TraceResult {
  std::map<std::string, double> values;
  std::size_t attempted = 0;  ///< units run (all checked)
  std::size_t failed = 0;
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed and runs the untimed verification unit
  /// (which doubles as the warm-up). Spans go to `log` when it is non-null.
  /// Returns false when a verification check fails.
  virtual bool setup(SpanLog* log) = 0;

  /// One timed unit: times exactly the call under test, then checks the
  /// outputs against the verification digest outside the timed region.
  virtual UnitSample unit(std::size_t index) = 0;

  virtual SimulatedMeans simulated() const = 0;

  /// The traced run: per-layer metrics from spans, probes and counters,
  /// bounded by roughly `seconds` of work.
  virtual TraceResult trace(double seconds, SpanLog& log) = 0;

  /// One-line description of the unit, printed with the results.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_fleet_city(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_planner(std::uint64_t seed);
std::unique_ptr<Workload> make_rich_evaluation(std::uint64_t seed);
std::unique_ptr<Workload> make_rich_cells(std::uint64_t seed);

/// Runs `fn` `batches` times and returns the median batch duration divided
/// by `calls_per_batch` [ns per call]; each batch is recorded as a span.
template <typename Fn>
double probe_ns_per_call(SpanLog& log, const std::string& name, std::size_t batches,
                         std::size_t calls_per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    log.record(name, t0, t1, log.innermost(), -1);
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(calls_per_batch));
  }
  return median(per_call);
}

}  // namespace perfbench
