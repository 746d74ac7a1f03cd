#pragma once
// Push-based telemetry streaming: a `subscribe` RPC turns an accepted
// connection into a one-way JSONL channel. The streamer owns the
// subscriber sockets and runs one sender thread per subscriber; every
// tick it emits one metrics snapshot line
//
//   {"telemetry":"metrics","process":"upa_served:7077","seq":3,
//    "dropped_spans":0,"counters":{...},"gauges":{...},
//    "histograms":{"serve.request_latency_seconds":
//                  {"count":12,"sum":0.9,"bounds":[...],"counts":[...],
//                   "mean":0.075}}}
//
// followed by one line per span completed since the previous tick:
//
//   {"telemetry":"span","process":"upa_served:7077","id":5,"parent":4,
//    "name":"handler","level":"serve_phase","domain":"wall_seconds",
//    "start":1.25,"end":1.31,"attrs":{...}}
//
// Span streaming is cursor-based over the owner's append-only span
// table, read under the mutex the owner records spans with, so a
// subscriber never sees a half-open span. A slow or dead subscriber is
// detached on the first failed send -- it cannot block the serving
// path, which never touches the streamer after the subscribe handoff.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "upa/obs/metrics.hpp"
#include "upa/obs/observer.hpp"
#include "upa/serve/json.hpp"

namespace upa::serve {

/// {"count":N,"sum":S,"bounds":[...],"counts":[...],"mean":M} for one
/// le-bucket histogram (counts has the trailing overflow bucket; mean is
/// 0 while empty). Shared by the telemetry stream, `stats`, and
/// `dispatch_stats`.
[[nodiscard]] Json histogram_json(const obs::Histogram& histogram);

/// One object member per gauge and histogram named `prefix` + a member
/// name with no further dot: the gauge's value, or histogram_json.
/// Gauges come first, each group in name order. `stats` and
/// `dispatch_stats` are this rendering of their daemon's snapshot.
[[nodiscard]] Json members(const obs::MetricsRegistry& metrics,
                           const std::string& prefix);

struct TelemetryStreamerOptions {
  /// Label stamped on every emitted line and on the subscribe ack
  /// (e.g. "upa_served:7077").
  std::string process;
  /// Fills a fresh registry with the owner's current metric snapshot.
  std::function<void(obs::MetricsRegistry&)> fill_metrics;
  /// The owner's observer (null = no spans) and the mutex that guards
  /// it. Spans are copied from the tracer's append-only table under
  /// `obs_mutex`, so an owner that records each batch of spans under the
  /// same mutex never has a batch streamed half-written.
  obs::Observer* obs = nullptr;
  std::mutex* obs_mutex = nullptr;
};

class TelemetryStreamer {
 public:
  /// Sender threads past this many are refused with a 503 envelope.
  static constexpr std::size_t kMaxSubscribers = 64;

  explicit TelemetryStreamer(TelemetryStreamerOptions options);
  ~TelemetryStreamer();

  TelemetryStreamer(const TelemetryStreamer&) = delete;
  TelemetryStreamer& operator=(const TelemetryStreamer&) = delete;

  enum class Subscribe { kNotSubscribe, kStreaming, kRefused };

  /// Subscribe interception for a connection's request line. A line
  /// that is not a `subscribe` request returns kNotSubscribe untouched.
  /// A valid one takes ownership of `fd` and streams to it: first the
  /// ack line (the subscribe RPC response), then one tick immediately,
  /// then one tick per interval (kStreaming: the caller must not touch
  /// `fd` again). Bad params, the subscriber limit, or a stopping
  /// streamer get an error envelope written to `fd` instead (kRefused:
  /// the connection stays in request mode). The fd's send timeout,
  /// already set by its owner, bounds every tick: a subscriber that
  /// cannot drain one in time is dropped.
  [[nodiscard]] Subscribe subscribe(int fd, const std::string& line);

  /// Stops every subscriber thread and closes every owned fd. Idempotent.
  void stop();

 private:
  struct Subscriber {
    int fd = -1;
    double interval_seconds = 0.5;
    bool done = false;  // guarded by mutex_
    std::thread thread;
  };

  /// Starts a sender thread for `fd`; false (without touching `fd`) at
  /// the subscriber limit or while stopping.
  bool add_subscriber(int fd, double interval_seconds,
                      const std::string& ack_line);
  void run_subscriber(Subscriber* subscriber, std::string ack_line);
  [[nodiscard]] std::string build_tick(std::uint64_t seq,
                                       std::size_t& span_cursor) const;
  void reap_finished_locked();

  TelemetryStreamerOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
};

}  // namespace upa::serve
