// Cycle-domain tracing: spans with causal IDs, instants, and counter tracks.
//
// A TraceContext lives inside the Simulator and timestamps every event with
// the *simulated* clock, so a trace of a run shows where fault cycles go —
// not where host time goes. Components register a named track once at
// construction (always-on, deterministic, costs nothing at runtime) and emit
// through the VMSLS_TRACE_* macros, which compile to a single predicted
// branch when no sink is attached. The emission path never schedules events
// and never touches the StatRegistry, so a traced run is bit-identical in
// cycles, event counts, and stats to an untraced one.
//
// Causality: TraceContext::new_id() hands out monotonically increasing
// request IDs (0 while disabled). The pager allocates one per primary fault
// and threads it through frame reservation, victim eviction, the
// SwapScheduler queue, and the device transfer, so one slow fault decomposes
// into named sub-spans ("fault" = "evict" + "queue" + "io") that a sink can
// reassemble by ID across tracks.
//
// JsonTraceWriter renders the stream as Chrome trace_event JSON (async
// begin/end spans keyed by (cat=track, id), instants, counters, and track
// metadata) loadable directly in ui.perfetto.dev — simulated cycles land in
// the "ts" field, which the UI reads as microseconds.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace vmsls::sim {

class TraceContext;

/// Index of a registered component track (one per component instance).
using TraceTrack = u32;

struct TraceEvent {
  enum class Kind : u8 { kBegin, kEnd, kInstant, kCounter };
  Kind kind = Kind::kInstant;
  TraceTrack track = 0;
  Cycles ts = 0;
  /// String literal (or storage outliving the call); sinks consume it
  /// synchronously and must not retain the pointer.
  const char* name = "";
  u64 id = 0;     ///< causal request id; 0 = none
  u64 aux = 0;    ///< free-form argument (vpn, class rank, ...)
  double value = 0.0;  ///< counter value (kCounter only)
};

/// Consumer of the event stream. Called synchronously from the emitting
/// component; implementations must not schedule simulator events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceContext& ctx, const TraceEvent& ev) = 0;
};

/// Per-simulator trace state: track registry, causal-ID allocator, and the
/// (optional) sink. Owned by the Simulator; components reach it through
/// Simulator::trace().
class TraceContext {
 public:
  /// `now` points at the simulator's clock (stable for its lifetime).
  explicit TraceContext(const Cycles* now) noexcept : now_(now) {}

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  bool enabled() const noexcept { return sink_ != nullptr; }

  /// Attaches (or with nullptr detaches) the sink. The sink must outlive
  /// its attachment; harnesses attach before the run and detach/finish
  /// after the queue drains.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }
  TraceSink* sink() const noexcept { return sink_; }

  /// Registers (or looks up) a named track. Construction-time only — the
  /// handle is a plain index, valid whether or not tracing ever turns on.
  TraceTrack track(const std::string& name);

  const std::vector<std::string>& track_names() const noexcept { return tracks_; }
  const std::string& track_name(TraceTrack t) const { return tracks_.at(t); }

  /// Fresh causal request id: monotonically increasing while a sink is
  /// attached, 0 while disabled (so disabled runs carry no per-run state).
  u64 new_id() noexcept { return enabled() ? ++last_id_ : 0; }
  u64 last_id() const noexcept { return last_id_; }

  // Emitters — call through the VMSLS_TRACE_* macros, which gate on
  // enabled() so call sites pay one branch, not an argument setup.
  void begin(TraceTrack track, const char* name, u64 id, u64 aux = 0) {
    emit(TraceEvent::Kind::kBegin, track, name, id, aux, 0.0);
  }
  void end(TraceTrack track, const char* name, u64 id, u64 aux = 0) {
    emit(TraceEvent::Kind::kEnd, track, name, id, aux, 0.0);
  }
  void instant(TraceTrack track, const char* name, u64 id = 0, u64 aux = 0) {
    emit(TraceEvent::Kind::kInstant, track, name, id, aux, 0.0);
  }
  void counter(TraceTrack track, const char* name, double value) {
    emit(TraceEvent::Kind::kCounter, track, name, 0, 0, value);
  }

 private:
  void emit(TraceEvent::Kind kind, TraceTrack track, const char* name, u64 id, u64 aux,
            double value) {
    if (sink_ == nullptr) return;
    TraceEvent ev;
    ev.kind = kind;
    ev.track = track;
    ev.ts = *now_;
    ev.name = name;
    ev.id = id;
    ev.aux = aux;
    ev.value = value;
    sink_->on_event(*this, ev);
  }

  const Cycles* now_;
  TraceSink* sink_ = nullptr;
  u64 last_id_ = 0;
  std::vector<std::string> tracks_;
};

/// Streams TraceEvents as a Chrome trace_event JSON array (Perfetto-
/// loadable). Spans become async "b"/"e" events keyed by (cat=track name,
/// id), instants "i" events on the track's thread, counters "C" events
/// named "<track>.<name>". finish() appends process/thread metadata and
/// closes the array; the destructor finishes with whatever context was
/// last seen if the caller forgot.
class JsonTraceWriter final : public TraceSink {
 public:
  /// Writes to `path` (throws std::runtime_error if unopenable).
  explicit JsonTraceWriter(const std::string& path);
  /// Writes to a caller-owned stream (tests).
  explicit JsonTraceWriter(std::ostream& os);
  ~JsonTraceWriter() override;

  JsonTraceWriter(const JsonTraceWriter&) = delete;
  JsonTraceWriter& operator=(const JsonTraceWriter&) = delete;

  void on_event(const TraceContext& ctx, const TraceEvent& ev) override;

  /// Emits track-name metadata and closes the JSON array. Idempotent.
  void finish(const TraceContext& ctx);

  u64 events_written() const noexcept { return events_; }

 private:
  void write_prefix();

  std::ofstream file_;
  std::ostream* out_;
  bool first_ = true;
  bool finished_ = false;
  u64 events_ = 0;
  /// Track names seen on emitted events, for finish() metadata (finish may
  /// run after the context's tracks grew further; only used tracks matter).
  std::vector<std::string> seen_tracks_;
};

// --- emission macros -------------------------------------------------------
//
// All hot-path emission goes through these. They gate on enabled(), so a
// sink-less run pays one well-predicted branch per site.

#define VMSLS_TRACE_BEGIN(ctx, ...) \
  do {                              \
    if ((ctx).enabled()) (ctx).begin(__VA_ARGS__); \
  } while (0)
#define VMSLS_TRACE_END(ctx, ...) \
  do {                            \
    if ((ctx).enabled()) (ctx).end(__VA_ARGS__); \
  } while (0)
#define VMSLS_TRACE_INSTANT(ctx, ...) \
  do {                                \
    if ((ctx).enabled()) (ctx).instant(__VA_ARGS__); \
  } while (0)
#define VMSLS_TRACE_COUNTER(ctx, ...) \
  do {                                \
    if ((ctx).enabled()) (ctx).counter(__VA_ARGS__); \
  } while (0)
#define VMSLS_TRACE_NEW_ID(ctx) ((ctx).new_id())

}  // namespace vmsls::sim
