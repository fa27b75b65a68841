// Host-time spans the benchmark records around its own calls into the
// simulator's layers (synthesis, elaboration, workload setup, the simulate
// phase, verification). Every span carries the id of the repetition it
// belongs to, spans stay in memory, and write_chrome_json() emits them once,
// at exit, as Chrome trace JSON (one row per repetition in Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.hpp"

namespace perfbench {

class HostSpans {
 public:
  struct Span {
    std::string name;
    std::uint64_t run = 0;
    Interval at;  ///< seconds since the recorder was created
  };

  /// Starts a new repetition: later spans carry the next run id.
  std::uint64_t next_run() { return ++run_; }
  std::uint64_t run() const noexcept { return run_; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  /// Times `fn()` as span `name` of the current run and returns its result.
  template <typename F>
  auto time(const std::string& name, F&& fn) -> decltype(fn()) {
    const double begin = now();
    struct Close {
      HostSpans& self;
      const std::string& name;
      double begin;
      ~Close() { self.spans_.push_back(Span{name, self.run_, Interval{begin, self.now()}}); }
    } close{*this, name, begin};
    return fn();
  }

  /// Intervals of every span named `name` in run `run`.
  std::vector<Interval> intervals(std::uint64_t run, const std::string& name) const {
    std::vector<Interval> out;
    for (const Span& s : spans_)
      if (s.run == run && s.name == name) out.push_back(s.at);
    return out;
  }

  /// Summed duration of the spans named `name` in run `run`, seconds.
  double total(std::uint64_t run, const std::string& name) const {
    double sum = 0.0;
    for (const Interval& i : intervals(run, name)) sum += i.end - i.begin;
    return sum;
  }

  /// Writes every span as a Chrome trace_event "X" (complete) event, with
  /// the run id as the thread id and in args, plus `label` as metadata.
  void write_chrome_json(const std::string& path, const std::string& label) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write host span trace " + path);
    out.precision(17);
    out << "{\"otherData\": {\"benchmark\": \"" << label << "\"},\n \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << s.run << ", \"ts\": " << s.at.begin * 1e6
          << ", \"dur\": " << (s.at.end - s.at.begin) * 1e6 << ", \"args\": {\"run\": " << s.run
          << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << " ]}\n";
  }

 private:
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
