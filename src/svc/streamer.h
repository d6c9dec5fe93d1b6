// TelemetryStreamer: turns a running World or Grid into an nwade-stream-v1
// frame stream (svc/frame.h) at a fixed sim-time cadence.
//
// The streamer is purely observational. It subscribes through the
// World/Grid listener hooks — which fire on the fixed step / exchange
// lattice, independent of run_until slicing — and everything it emits
// except heartbeat wall stamps is derived from deterministic simulation
// state. With a FakeWallClock (or no clock at all) the emitted bytes are a
// pure function of the scenario: byte-identical across grid_threads values
// and run_until slicings, and the cumulative fold of the metrics deltas
// equals the end-of-run MetricsSnapshot export. Tests hold the plane to exactly that.
//
// Per cadence point the streamer emits, in fixed order: health row(s),
// status (grid only), one metrics delta (MetricsSnapshot::diff against the
// previous emission), trace frames for any nwade/im detection-timeline
// events recorded since the last point, and a heartbeat. finish() closes
// the stream with a final delta plus a full `metrics_total` snapshot.
//
// When emit_trace is on and the source's tracer is enabled, the streamer
// owns the trace drain (take_trace) — an end-of-run exporter attached to
// the same source would see only events after the last cadence point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/sink.h"
#include "util/telemetry.h"
#include "util/types.h"
#include "util/wall_clock.h"

namespace nwade::sim {
class World;
class Grid;
}  // namespace nwade::sim

namespace nwade::svc {

struct StreamerConfig {
  /// Emission period in simulated ms. Must be a positive multiple of the
  /// source's lattice: step_ms for a World, exchange_every_ms for a Grid
  /// (attach() rejects anything else).
  Duration cadence_ms{1'000};
  bool emit_metrics{true};
  bool emit_health{true};
  bool emit_trace{true};
  bool emit_heartbeat{true};
  /// Stamps heartbeat.wall_us. Null = stamp 0 (fully deterministic stream);
  /// tests pass a FakeWallClock, serve passes SystemWallClock. Not owned.
  util::WallClock* wall{nullptr};
};

class TelemetryStreamer {
 public:
  explicit TelemetryStreamer(StreamerConfig cfg = {});
  ~TelemetryStreamer();
  TelemetryStreamer(const TelemetryStreamer&) = delete;
  TelemetryStreamer& operator=(const TelemetryStreamer&) = delete;

  /// Sinks receive every frame, in registration order. Not owned; must
  /// outlive the streamer (or be removed by destroying the streamer first).
  void add_sink(StreamSink* sink);

  /// Subscribes to `w` (must not be a Grid shard) / `g`. Emits the hello
  /// frame unless `resume` — resuming continues a checkpointed stream: the
  /// delta baseline is re-derived from the restored registry and `seq`
  /// continues from set_next_seq(), so the concatenation of the pre- and
  /// post-restore streams is byte-identical to an uninterrupted run.
  /// Returns false (and subscribes nothing) when cadence_ms does not sit on
  /// the source's lattice.
  bool attach(sim::World& w, bool resume = false);
  bool attach(sim::Grid& g, bool resume = false);
  /// Clears the source's listener. Safe to call twice; the destructor calls
  /// it, so a streamer must not outlive its source.
  void detach();

  /// Emits the closing frames: a final point if simulated time moved past
  /// the last cadence emission, then `metrics_total` (the full cumulative
  /// snapshot) and a last heartbeat. After finish(), cumulative() equals
  /// the source's end-of-run MetricsSnapshot export.
  void finish();

  /// Frame bytes that bring a late-joining consumer up to date: the original
  /// hello plus a `metrics_total` of the cumulative snapshot, stamped with
  /// the last emitted seq (out-of-band — live seq continues unaffected).
  /// Wire this into TcpServerSink::set_greeting.
  std::string catch_up() const;

  /// Sequence number the next frame will carry. Persist across a
  /// checkpoint (serve keeps a sidecar) and feed back via set_next_seq
  /// before a resume attach.
  std::uint64_t next_seq() const { return seq_; }
  void set_next_seq(std::uint64_t seq) { seq_ = seq; }

  std::uint64_t frames_emitted() const { return frames_; }
  /// Restores the emitted-frame count on resume (heartbeats carry it, so it
  /// is stream state just like seq).
  void set_frames_emitted(std::uint64_t frames) { frames_ = frames; }
  /// The fold of every metrics delta emitted so far (== the source snapshot
  /// as of the last emission).
  const util::telemetry::MetricsSnapshot& cumulative() const { return prev_; }

 private:
  void emit(const std::string& json);
  void emit_world_point(Tick t);
  void emit_grid_point(Tick t);
  void emit_heartbeat(Tick t);
  void emit_trace_frames(sim::World& w, std::int64_t shard);

  StreamerConfig cfg_;
  std::vector<StreamSink*> sinks_;
  sim::World* world_{nullptr};
  sim::Grid* grid_{nullptr};
  std::uint64_t seq_{0};
  std::uint64_t frames_{0};
  Tick last_emit_t_{-1};
  std::string hello_json_;
  util::telemetry::MetricsSnapshot prev_;
};

}  // namespace nwade::svc
