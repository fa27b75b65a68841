#include "sim/telemetry.hpp"

#include <fstream>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace vmsls::sim {

TelemetrySampler::TelemetrySampler(Simulator& sim, Cycles period, std::string name)
    : sim_(sim), period_(period), name_(std::move(name)) {
  require(period_ > 0, "TelemetrySampler: period must be > 0");
  trace_track_ = sim_.trace().track(name_);
}

void TelemetrySampler::add_probe(std::string column, std::function<double()> probe) {
  ensure(rows_.empty(), "TelemetrySampler: probes must be added before start()");
  columns_.push_back(std::move(column));
  probes_.push_back(Probe{std::move(probe), /*rate=*/false, 0.0});
}

void TelemetrySampler::add_rate_probe(std::string column, std::function<double()> probe) {
  ensure(rows_.empty(), "TelemetrySampler: probes must be added before start()");
  columns_.push_back(std::move(column));
  probes_.push_back(Probe{std::move(probe), /*rate=*/true, 0.0});
}

void TelemetrySampler::start() {
  ensure(!armed_, "TelemetrySampler: already started");
  sample();
  armed_ = true;
  sim_.schedule_in(period_, [this] { tick(); });
}

void TelemetrySampler::tick() {
  sample();
  // pending_ already excludes this tick while it runs, so idle() here means
  // "no workload events left": take the sample and let the queue drain. A
  // live simulation re-arms, guaranteeing coverage through the last event.
  if (!sim_.idle()) {
    sim_.schedule_in(period_, [this] { tick(); });
  } else {
    armed_ = false;
  }
}

void TelemetrySampler::sample() {
  Row row;
  row.cycle = sim_.now();
  row.values.reserve(probes_.size());
  const bool mirror = sim_.trace().enabled();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    Probe& p = probes_[i];
    const double raw = p.fn();
    double v = raw;
    if (p.rate) {
      v = raw - p.prev;
      p.prev = raw;
    }
    row.values.push_back(v);
    if (mirror) sim_.trace().counter(trace_track_, columns_[i].c_str(), v);
  }
  rows_.push_back(std::move(row));
}

void TelemetrySampler::write_csv(std::ostream& os) const {
  os << "cycle";
  for (const auto& c : columns_) os << "," << c;
  os << "\n";
  for (const auto& row : rows_) {
    os << row.cycle;
    for (double v : row.values) os << "," << v;
    os << "\n";
  }
}

void TelemetrySampler::save_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("TelemetrySampler: cannot open " + path);
  write_csv(os);
}

}  // namespace vmsls::sim
