#pragma once
// `upa_served` core: a multi-threaded loopback/TCP evaluation service
// whose own request handling IS the paper's M/M/i/K model. `workers`
// threads (the paper's i operational servers) drain one bounded queue;
// `capacity` (the paper's K) bounds the total number of admitted
// connections in the system -- queued plus in service. The station
// itself (admission with a non-blocking 503, the worker pool, the
// keep-alive loop and the drain) is the connection layer in
// upa/serve/net.hpp, shared with upa_dispatch; this class adds the
// per-request part: deadlines, dispatch, spans, the metrics snapshot
// and the server-bound `stats`/`reconfigure` methods. The measured
// rejection fraction under an open-loop Poisson load is directly
// comparable to `queueing::mmck_loss_probability` -- the dogfood check
// run by `upa_loadgen` and pinned in tests/test_serve.cpp.
//
// Both knobs are runtime-elastic: reconfigure() (also exposed as the
// `reconfigure` RPC, the actuator of the upa_ctl control loop) retargets
// the worker pool and swaps the admission bound atomically. Grow spawns
// threads at once; shrink retires excess workers only between requests,
// so an in-flight request always completes.
//
// Lifecycle: start() binds, listens, and spawns the acceptor plus the
// workers; stop() (idempotent, also run by the destructor) closes the
// listen socket so no new connection is admitted, lets the workers
// drain every admitted connection, and joins all threads. In-flight
// requests always complete, but a kept-alive connection gets no
// further requests once the drain begins, and both socket directions
// carry `read_timeout_seconds`, so stop() always terminates even
// against a client that keeps sending or stops reading. Post-stop
// connects are refused by the OS.
//
// Deadlines: a server-wide `deadline_seconds` budget (0 = off) applies
// per request -- anchored at connection admission for a connection's
// first non-empty line and at the line read for every later request on
// the same kept-alive connection (so long-lived connections are not
// penalized for their age). A request may tighten (never extend) the
// budget with a `deadline_ms` envelope member measured from when its
// line was read. An over-deadline request gets a 504 envelope --
// including when the result was computed but missed the budget.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "upa/obs/metrics.hpp"
#include "upa/obs/observer.hpp"
#include "upa/serve/net.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve {

struct ServerConfig {
  /// Bind address; the default confines the service to loopback.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Worker threads draining the request queue -- the model's i.
  std::size_t workers = 2;
  /// Total admitted connections in the system (queued + in service) --
  /// the model's K. Must be >= workers.
  std::size_t capacity = 8;
  /// Per-request deadline in seconds (0 disables), anchored at
  /// admission for a connection's first request and at the line read
  /// for each later request on the same connection.
  double deadline_seconds = 0.0;
  /// Socket I/O timeout (both directions): a worker never waits longer
  /// than this for the next request line, nor for a stalled client to
  /// drain a response, before closing the connection.
  double read_timeout_seconds = 10.0;
  /// Optional span sink (non-owning), recorded into only with `trace`
  /// and streamed to `subscribe` connections. The observer is
  /// mutex-guarded inside the server (Tracer is single-threaded by
  /// design).
  obs::Observer* obs = nullptr;
  /// Distributed tracing mode (needs `obs`). Per sampled request the
  /// server records one wall-domain serve_request span (attrs: code,
  /// queue_wait_seconds, the trace linkage trace_id / parent_span, and
  /// conn / seq) plus serve_phase child spans (admission_wait /
  /// queue_wait, handler, serialize). Off by default: an untraced
  /// server records no spans at all, and its responses are
  /// byte-identical to a traced server's.
  bool trace = false;
  /// Label stamped on telemetry lines; empty = "upa_served:<port>".
  std::string telemetry_process;
};

class Server {
 public:
  /// Validates the config; the dispatcher gains a server-bound `stats`
  /// method on top of the built-in evaluator methods.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns acceptor + workers. Throws ModelError on
  /// socket failures (port in use, no permission) and if already started.
  void start();

  /// Graceful drain: stops accepting, serves everything already
  /// admitted, joins all threads. Idempotent; safe to call from a signal
  /// watcher thread. Returns once every worker has exited.
  void stop();

  [[nodiscard]] bool running() const noexcept { return net_.running(); }

  /// The bound TCP port (resolved after start() for port 0 configs).
  [[nodiscard]] std::uint16_t port() const noexcept { return net_.port(); }

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

  /// The metrics snapshot: every serve.* gauge and histogram, as
  /// fill_metrics() names them. `stats`, `subscribe` and the exit
  /// summary are views of it.
  [[nodiscard]] obs::MetricsRegistry stats() const;

  /// Online elastic resize -- the `reconfigure` RPC verb. Atomically
  /// swaps the admission bound (K) and retargets the worker pool (i);
  /// 0 keeps the current value of either knob. Grow spawns threads
  /// immediately; shrink is drain-aware: excess workers retire before
  /// taking their NEXT job, so an in-flight request is never killed and
  /// no client ever sees a transport error from a resize. Lowering K
  /// below the current occupancy evicts nothing -- the new bound applies
  /// at admission only. Concurrent calls serialize; throws ModelError on
  /// invalid targets (workers < 1, capacity < workers), while the
  /// server is draining, or before start().
  ReconfigureResult reconfigure(std::size_t workers, std::size_t capacity);

 private:
  using Clock = net::Clock;

  /// The only code that names a serve.* metric. Gauges (all counts
  /// since start()): the connection layer's accepted, rejected,
  /// completed, in_system, max_in_system, workers (i), capacity (K) and
  /// retiring; requests (lines answered, any code), deadline_missed
  /// (504s), protocol_errors (unparseable lines), reconfigures (applied
  /// resizes), busy_seconds (handler wall time) and handled_requests
  /// (requests that ran a handler; handled / busy_seconds is the
  /// service-rate estimate nu-hat, free of queue-wait bias).
  /// Histograms: request_latency_seconds, and method_latency.<method>
  /// for each method that has served a request. For a fresh registry:
  /// filling twice double-counts the histograms.
  void fill_metrics(obs::MetricsRegistry& metrics) const;

  /// Everything observe_request() needs about one finished request.
  /// Phase stamps are offsets from the request anchor, in seconds.
  struct RequestObservation {
    std::string method = "?";
    int code = 200;
    bool first_request = true;
    double queue_wait_seconds = 0.0;
    double latency_seconds = 0.0;
    double handler_begin = 0.0;
    double handler_end = 0.0;
    double serialize_begin = 0.0;
    double serialize_end = 0.0;
    bool has_handler = false;
    bool has_serialize = false;
    bool has_trace = false;       ///< request carried a valid trace member
    std::string trace_id;
    std::uint64_t parent_span = 0;
    bool sampled = true;
    std::uint64_t conn = 0;       ///< connection serial
    std::uint64_t seq = 0;        ///< request index on the connection
  };

  /// The connection layer's per-line handler: one request line -> one
  /// response line (counters + deadline checks). The deadline budget and
  /// the latency/queue-wait clocks start at the request anchor: admission
  /// for a connection's first request, the line read for later ones.
  [[nodiscard]] std::string respond_line(const std::string& line,
                                         const net::Request& request);
  void observe_request(const RequestObservation& observation);

  ServerConfig config_;
  Dispatcher dispatcher_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> deadline_missed_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> reconfigures_{0};

  // latency_mutex_ guards latency_, latency_by_method_, busy_seconds_,
  // handled_requests_, and config_.obs.
  // Traced requests record their whole span batch (root + phase
  // children) under one hold of this mutex, so the telemetry streamer's
  // span cursor -- advanced under the same mutex -- only ever observes
  // complete batches.
  mutable std::mutex latency_mutex_;
  obs::Histogram latency_;
  std::map<std::string, obs::Histogram> latency_by_method_;
  double busy_seconds_ = 0.0;          ///< handler wall time, summed
  std::uint64_t handled_requests_ = 0;  ///< requests that ran a handler

  // Last: its threads call back into every member above.
  net::LineServer net_;
};

}  // namespace upa::serve
