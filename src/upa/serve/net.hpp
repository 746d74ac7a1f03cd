#pragma once
// The connection layer shared by `upa_served` (serve::Server) and
// `upa_dispatch` (dispatch::Front): one M/M/i/K station built from a
// polling acceptor, one bounded queue and an elastic worker pool, plus
// the socket helpers the protocol client reuses.
//
// Admission: `capacity` (the model's K) bounds the admitted connections
// in the system -- queued plus in service. A connection holds one of the
// K slots from admission until it closes; a connection that turns into a
// telemetry `subscribe` stream gives its slot back at the handoff. When
// the system is full the acceptor writes a pre-rendered one-line 503
// envelope to the new connection without blocking and closes it unread,
// so the accept loop never stalls behind a slow client.
//
// Service: `workers` threads (the model's i) take admitted connections
// off the queue and run the keep-alive line loop: read one request line,
// hand it to the owner's per-line handler, write the response line, and
// repeat until the client closes, a read times out, or the drain begins.
// resize() retargets i and swaps K (with its 503 text) atomically; a
// shrink retires workers only between connections, so an in-flight
// request always completes.
//
// Drain: stop() closes admission, serves the first line of every queued
// connection and the request in flight on every other, wakes every
// connection idle between requests (shutdown(SHUT_RD) on its parked
// fd), and joins every thread. Every read after a connection's first
// line is parked, so no idle keep-alive client holds the drain open;
// both socket directions carry `read_timeout_seconds`, so a client that
// stops reading cannot either.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "upa/obs/metrics.hpp"
#include "upa/serve/telemetry.hpp"

namespace upa::serve {

/// What one applied resize changed (returned by Server::reconfigure and
/// echoed by the `reconfigure` RPC).
struct ReconfigureResult {
  std::size_t workers = 0;
  std::size_t capacity = 0;
  std::size_t previous_workers = 0;
  std::size_t previous_capacity = 0;
  /// Workers above the new target that will retire as soon as they
  /// finish their current connection (drain-aware shrink: never
  /// mid-flight).
  std::size_t retiring = 0;
  /// Admitted connections (queued + in service) when it applied.
  std::size_t in_system = 0;
};

namespace net {

using Clock = std::chrono::steady_clock;

/// Protocol guard: a request line longer than this is a client bug, not
/// a workload; the connection is dropped instead of buffering unbounded.
inline constexpr std::size_t kMaxRequestLineBytes = 1 << 20;

/// Bounds both directions of socket I/O (no-op for seconds <= 0). The
/// send timeout matters as much as the receive one: without it a client
/// that stops reading pins a worker in send_all forever, and a drain
/// can never join that worker.
void set_io_timeouts(int fd, double seconds);

/// Writes the whole buffer; false on a broken or stalled peer.
/// MSG_NOSIGNAL keeps a vanished peer from raising SIGPIPE.
[[nodiscard]] bool send_all(int fd, const std::string& data);

enum class LineRead { kLine, kClosed, kFailed };

/// Pulls one '\n'-terminated line (a trailing '\r' dropped) out of
/// `buffer` plus the socket; unconsumed bytes stay in `buffer`. kClosed
/// on EOF; kFailed on a timeout, a receive error (errno is left set), or
/// once `buffer` holds more than `max_bytes` without a newline.
[[nodiscard]] LineRead read_line(int fd, std::string& buffer,
                                 std::string& line, std::size_t max_bytes);

/// Base of the state an owner keeps per connection (Request::state).
struct ConnectionState {
  ConnectionState() = default;
  ConnectionState(const ConnectionState&) = delete;
  ConnectionState& operator=(const ConnectionState&) = delete;
  virtual ~ConnectionState() = default;
};

/// What the per-line handler learns about the line it answers.
struct Request {
  std::uint64_t conn = 0;  ///< connection serial, from 1
  std::uint64_t seq = 0;   ///< requests already answered on it
  /// The connection's first non-empty line: its deadline budget
  /// anchors at `admitted` instead of at the line read.
  bool first = true;
  Clock::time_point admitted;  ///< when the acceptor admitted it
  /// The owner's per-connection state: empty until the handler fills
  /// it, destroyed when the connection closes or turns into a
  /// `subscribe` stream.
  std::unique_ptr<ConnectionState> state;
};

/// One request line -> one response line (no trailing newline). The
/// same Request comes back for every line of one connection.
using LineHandler =
    std::function<std::string(const std::string& line, Request&)>;

struct LineServerOptions {
  /// Owner class name for error messages: "<owner>::start called
  /// twice", "<owner>Config.bind_address is not an IPv4 address".
  std::string owner;
  /// Default telemetry label prefix: "<process_prefix>:<port>".
  std::string process_prefix;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 picks an ephemeral port
  std::size_t workers = 1;    ///< the model's i
  std::size_t capacity = 1;   ///< the model's K, >= workers
  double read_timeout_seconds = 10.0;
  /// The 503 message for a connection refused at capacity K.
  std::function<std::string(std::size_t capacity)> reject_message;
  LineHandler handler;
  /// Empty `process` = "<process_prefix>:<port>".
  TelemetryStreamerOptions telemetry;
};

class LineServer {
 public:
  /// Stores the options; the owner validates them.
  explicit LineServer(LineServerOptions options);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens, starts the telemetry streamer, and spawns the
  /// acceptor and the workers. Throws ModelError on socket failures and
  /// if already started. A restart resumes at the last resize targets.
  void start();

  /// Graceful drain (see the file comment). Idempotent; safe to call
  /// from a signal watcher thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  /// The bound TCP port (resolved by start() for port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The station's gauges, each named `prefix` + one of: accepted
  /// (connections admitted), rejected (refused with the 503), completed
  /// (admitted connections fully handled), in_system (queued + in
  /// service now), max_in_system (its high-water mark), workers (the
  /// target i), capacity (K), retiring (workers past the target, still
  /// draining). All counts since construction.
  void fill_metrics(obs::MetricsRegistry& metrics,
                    const std::string& prefix) const;

  /// Swaps K and its 503 text atomically and retargets i; 0 keeps the
  /// current value of either. Grow spawns workers at once; shrink
  /// retires excess workers before they take their next connection.
  /// Lowering K below the occupancy evicts nothing. Concurrent calls
  /// serialize; throws ModelError on invalid targets (workers < 1,
  /// capacity < workers), while draining, or before start(). Safe to
  /// call from inside the handler.
  ReconfigureResult resize(std::size_t workers, std::size_t capacity);

 private:
  struct Job {
    int fd = -1;
    Clock::time_point admitted;
  };

  void accept_loop();
  void worker_loop();
  void serve_connection(const Job& job);
  /// Registers a connection about to block in recv between requests so
  /// stop() can wake it. Returns false (without parking) once the drain
  /// has begun, which is also what keeps an endlessly-requesting client
  /// from holding the drain open.
  [[nodiscard]] bool park(int fd);
  void unpark(int fd);
  /// Joins and erases workers that retired after a shrink. Caller holds
  /// workers_mutex_.
  void reap_exited_workers();

  LineServerOptions options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accept_stop_{false};
  std::mutex stop_mutex_;  // serializes start/stop callers
  bool started_ = false;   // guarded by stop_mutex_
  std::unique_ptr<TelemetryStreamer> telemetry_;

  // mutex_ guards queue_, in_system_, stopping_, parked_fds_, the pool
  // and admission state (workers_target_, capacity_limit_,
  // active_workers_, reject_line_), and exited_worker_ids_.
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<Job> queue_;
  std::size_t in_system_ = 0;
  bool stopping_ = false;
  std::vector<int> parked_fds_;  // connections idle between requests
  std::size_t workers_target_ = 0;
  std::size_t capacity_limit_ = 0;
  std::size_t active_workers_ = 0;  ///< live worker loops (incl. retiring)
  std::string reject_line_;  ///< 503 envelope, rebuilt when K changes
  std::vector<std::thread::id> exited_worker_ids_;  ///< retired, joinable

  // accepted_ and completed_ change only under mutex_, together with
  // in_system_, so fill_metrics() reads the three consistently.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::size_t> max_in_system_{0};
  std::atomic<std::uint64_t> conn_serial_{0};

  // Threads last: they use every member above.
  std::thread acceptor_;
  // workers_mutex_ guards the workers_ handles and serializes resize()
  // callers. Never held while joining a RUNNING worker (a worker running
  // the reconfigure RPC needs it): stop() moves handles out before
  // joining, and reap_exited_workers() only joins threads that already
  // left worker_loop().
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
};

}  // namespace net
}  // namespace upa::serve
