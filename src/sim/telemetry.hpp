// Periodic telemetry sampling in the simulated clock domain.
//
// A TelemetrySampler is a self-rescheduling simulator event that snapshots a
// configurable probe set every `period` cycles into an in-memory time-series
// (flushable as CSV) and, when tracing is on, mirrors each sample onto trace
// counter tracks. It re-arms only while other work is pending, so the final
// sample lands at or after the last workload event and the event queue still
// drains — a sampler never keeps a run alive on its own.
//
// Probes are plain std::function<double()> registered before start(); the
// column set is frozen at the first sample. Rate probes turn a monotonically
// increasing counter into a per-sample delta (e.g. faults per period).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace vmsls::sim {

class Simulator;

/// Platform-level telemetry knobs (see sls::PlatformSpec::telemetry).
struct TelemetryConfig {
  Cycles period = 0;  ///< sampling period in cycles; 0 = disabled
};

class TelemetrySampler {
 public:
  struct Row {
    Cycles cycle = 0;
    std::vector<double> values;
  };

  /// `period` must be > 0. `name` labels the sampler's trace track.
  TelemetrySampler(Simulator& sim, Cycles period, std::string name = "telemetry");

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Registers a sampled value under CSV column `column`. Call before
  /// start(); the probe must stay valid for the sampler's lifetime.
  void add_probe(std::string column, std::function<double()> probe);

  /// Like add_probe, but reports the delta since the previous sample —
  /// turns a monotonic counter into a per-period rate.
  void add_rate_probe(std::string column, std::function<double()> probe);

  /// Takes the first sample immediately and schedules the periodic tick.
  void start();

  /// True while the periodic tick is scheduled (start()ed and the
  /// simulation has not drained past the sampler yet).
  bool armed() const noexcept { return armed_; }

  Cycles period() const noexcept { return period_; }

  const std::vector<Row>& rows() const noexcept { return rows_; }
  const std::vector<std::string>& columns() const noexcept { return columns_; }

  /// Writes "cycle,<col>,..." header plus one row per sample.
  void write_csv(std::ostream& os) const;
  /// write_csv to `path` (throws std::runtime_error if unopenable).
  void save_csv(const std::string& path) const;

 private:
  void sample();
  void tick();

  Simulator& sim_;
  Cycles period_;
  std::string name_;
  u32 trace_track_ = 0;
  bool armed_ = false;
  std::vector<std::string> columns_;
  struct Probe {
    std::function<double()> fn;
    bool rate = false;
    double prev = 0.0;
  };
  std::vector<Probe> probes_;
  std::vector<Row> rows_;
};

}  // namespace vmsls::sim
