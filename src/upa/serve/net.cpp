#include "upa/serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve::net {

namespace {

/// How often the acceptor re-checks the stop flag while idle.
constexpr int kAcceptPollMillis = 100;

/// Binds and listens. SOCK_CLOEXEC: a fork+exec elsewhere in the process
/// (the farm orchestrator restarting a replica) must not leak the socket
/// into the child, where a lingering duplicate would keep peers from
/// ever seeing EOF.
int open_listener(const LineServerOptions& options,
                  std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  UPA_REQUIRE(fd >= 0,
              std::string("socket() failed: ") + std::strerror(errno));

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw common::ModelError(options.owner +
                             "Config.bind_address is not an IPv4 "
                             "address: " +
                             options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw common::ModelError("bind(" + options.bind_address + ":" +
                             std::to_string(options.port) +
                             ") failed: " + reason);
  }
  if (::listen(fd, 256) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw common::ModelError("listen() failed: " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port = ntohs(bound.sin_port);
  return fd;
}

/// The one-line 503 envelope for a connection refused at capacity K.
std::string render_reject_line(const LineServerOptions& options,
                               std::size_t capacity) {
  return make_error_response(Json(), ErrorCode::kQueueFull,
                             options.reject_message(capacity))
             .dump() +
         "\n";
}

}  // namespace

void set_io_timeouts(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                                       tv.tv_sec)) *
                                        1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

LineRead read_line(int fd, std::string& buffer, std::string& line,
                   std::size_t max_bytes) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer, 0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return LineRead::kLine;
    }
    if (buffer.size() > max_bytes) return LineRead::kFailed;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return LineRead::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return LineRead::kFailed;  // timeout (EAGAIN) or hard error
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

LineServer::LineServer(LineServerOptions options)
    : options_(std::move(options)),
      workers_target_(options_.workers),
      capacity_limit_(options_.capacity),
      reject_line_(render_reject_line(options_, options_.capacity)) {}

LineServer::~LineServer() { stop(); }

void LineServer::start() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  UPA_REQUIRE(!started_, options_.owner + "::start called twice");
  listen_fd_ = open_listener(options_, port_);

  std::size_t initial_workers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    queue_.clear();
    in_system_ = 0;
    exited_worker_ids_.clear();
    active_workers_ = workers_target_;
    initial_workers = workers_target_;
  }
  accept_stop_.store(false);

  TelemetryStreamerOptions telemetry = options_.telemetry;
  if (telemetry.process.empty()) {
    telemetry.process = options_.process_prefix + ":" + std::to_string(port_);
  }
  telemetry_ = std::make_unique<TelemetryStreamer>(std::move(telemetry));

  started_ = true;
  running_.store(true);

  acceptor_ = std::thread([this] { accept_loop(); });
  std::lock_guard<std::mutex> pool_lock(workers_mutex_);
  workers_.reserve(initial_workers);
  for (std::size_t w = 0; w < initial_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void LineServer::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Wake connections parked in recv between requests: SHUT_RD makes
    // their recv return 0 at once, so the drain never waits out a read
    // timeout on an idle kept-alive client. Safe under mutex_: a worker
    // closes an fd only after unparking it.
    for (const int fd : parked_fds_) ::shutdown(fd, SHUT_RD);
  }
  accept_stop_.store(true);
  work_ready_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  // Pop-loop join: workers_mutex_ is never held while joining a running
  // worker, because a worker applying the reconfigure RPC needs it. Any
  // thread a racing resize spawns is pushed under workers_mutex_ while
  // its spawning worker is still alive -- hence still being joined
  // here -- so this loop always finds every handle.
  for (;;) {
    std::thread victim;
    {
      std::lock_guard<std::mutex> pool_lock(workers_mutex_);
      if (workers_.empty()) break;
      victim = std::move(workers_.back());
      workers_.pop_back();
    }
    if (victim.joinable()) victim.join();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited_worker_ids_.clear();
    active_workers_ = 0;
  }
  telemetry_->stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
  running_.store(false);
}

void LineServer::fill_metrics(obs::MetricsRegistry& metrics,
                              const std::string& prefix) const {
  const auto set = [&](const char* name, double value) {
    metrics.gauge(prefix + name).set(value);
  };
  set("rejected", static_cast<double>(rejected_.load()));
  std::lock_guard<std::mutex> lock(mutex_);
  set("accepted", static_cast<double>(accepted_.load()));
  set("completed", static_cast<double>(completed_.load()));
  set("in_system", static_cast<double>(in_system_));
  set("max_in_system", static_cast<double>(max_in_system_.load()));
  set("workers", static_cast<double>(workers_target_));
  set("capacity", static_cast<double>(capacity_limit_));
  set("retiring", static_cast<double>(active_workers_ > workers_target_
                                          ? active_workers_ - workers_target_
                                          : 0));
}

ReconfigureResult LineServer::resize(std::size_t workers,
                                     std::size_t capacity) {
  std::lock_guard<std::mutex> pool_lock(workers_mutex_);
  ReconfigureResult r;
  std::size_t spawn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UPA_REQUIRE(running_.load(), "reconfigure requires a started server");
    UPA_REQUIRE(!stopping_, "server is draining; reconfigure refused");
    const std::size_t new_workers =
        workers == 0 ? workers_target_ : workers;
    const std::size_t new_capacity =
        capacity == 0 ? capacity_limit_ : capacity;
    UPA_REQUIRE(new_workers >= 1, "reconfigure: workers must be >= 1");
    UPA_REQUIRE(new_capacity >= new_workers,
                "reconfigure: capacity must be >= workers (K >= i)");
    r.previous_workers = workers_target_;
    r.previous_capacity = capacity_limit_;
    r.workers = new_workers;
    r.capacity = new_capacity;
    if (new_capacity != capacity_limit_) {
      // The admission bound swaps atomically with the 503 text: the
      // acceptor reads both under this mutex, so no connection is ever
      // judged against one K and told about another.
      capacity_limit_ = new_capacity;
      reject_line_ = render_reject_line(options_, capacity_limit_);
    }
    workers_target_ = new_workers;
    if (active_workers_ < workers_target_) {
      // Pre-credit the spawns under mutex_ so a concurrent shrink
      // computed against active_workers_ never double-retires.
      spawn = workers_target_ - active_workers_;
      active_workers_ = workers_target_;
    }
    r.retiring = active_workers_ > workers_target_
                     ? active_workers_ - workers_target_
                     : 0;
    r.in_system = in_system_;
  }
  reap_exited_workers();
  for (std::size_t w = 0; w < spawn; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  // Shrinks need idle workers to notice the lowered target; grows need
  // a backlog handed to the fresh threads at once.
  work_ready_.notify_all();
  return r;
}

void LineServer::reap_exited_workers() {
  std::vector<std::thread::id> exited;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited.swap(exited_worker_ids_);
  }
  // These threads already returned from worker_loop(), so joining them
  // under workers_mutex_ cannot wait on anything that needs it.
  for (const std::thread::id id : exited) {
    for (auto it = workers_.begin(); it != workers_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();
        workers_.erase(it);
        break;
      }
    }
  }
}

void LineServer::accept_loop() {
  while (!accept_stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) continue;  // timeout tick or EINTR: re-check stop flag
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;

    bool admitted = false;
    std::string reject_line;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_ && in_system_ < capacity_limit_) {
        ++in_system_;
        std::size_t seen = max_in_system_.load();
        while (in_system_ > seen &&
               !max_in_system_.compare_exchange_weak(seen, in_system_)) {
        }
        queue_.push_back(Job{fd, Clock::now()});
        accepted_.fetch_add(1);
        admitted = true;
      } else {
        reject_line = reject_line_;
      }
    }
    if (admitted) {
      work_ready_.notify_one();
      continue;
    }

    // Reject without ever blocking the accept loop: the socket is made
    // non-blocking, one short send is attempted (a fresh connection's
    // send buffer always has room for ~100 bytes; if not, the client
    // sees the close alone), and the connection is dropped unread.
    rejected_.fetch_add(1);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    (void)::send(fd, reject_line.data(), reject_line.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
}

void LineServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return !queue_.empty() || stopping_ ||
               active_workers_ > workers_target_;
      });
      // Retire when above the target (drain-aware shrink: the check sits
      // between connections, so a worker only ever leaves with no job in
      // hand), or when stopping with the queue fully drained. The id is
      // recorded for reap_exited_workers(); the handle stays in workers_
      // until a later resize or stop() joins it.
      if ((!stopping_ && active_workers_ > workers_target_) ||
          queue_.empty()) {
        --active_workers_;
        exited_worker_ids_.push_back(std::this_thread::get_id());
        return;
      }
      job = queue_.front();
      queue_.pop_front();
    }
    serve_connection(job);
    std::lock_guard<std::mutex> lock(mutex_);
    --in_system_;
    completed_.fetch_add(1);
  }
}

void LineServer::serve_connection(const Job& job) {
  set_io_timeouts(job.fd, options_.read_timeout_seconds);
  Request request;
  request.conn = conn_serial_.fetch_add(1) + 1;
  request.admitted = job.admitted;
  std::string buffer;
  std::string line;
  bool first_line = true;
  for (;;) {
    // The first line is always read -- its connection was admitted --
    // but every later read, even after an empty line, is parked so
    // stop() can wake the blocking recv and end the drain at once.
    if (first_line) {
      first_line = false;
      if (read_line(job.fd, buffer, line, kMaxRequestLineBytes) !=
          LineRead::kLine) {
        break;
      }
    } else {
      if (!park(job.fd)) break;
      const LineRead got =
          read_line(job.fd, buffer, line, kMaxRequestLineBytes);
      unpark(job.fd);
      if (got != LineRead::kLine) break;
    }
    if (line.empty()) continue;
    switch (telemetry_->subscribe(job.fd, line)) {
      case TelemetryStreamer::Subscribe::kStreaming:
        // The streamer owns the fd now; returning releases the worker,
        // the K slot and the request's state (a long-lived subscriber
        // holds none of them).
        return;
      case TelemetryStreamer::Subscribe::kRefused:
        request.first = false;
        continue;
      case TelemetryStreamer::Subscribe::kNotSubscribe:
        break;
    }
    std::string response = options_.handler(line, request);
    request.first = false;
    ++request.seq;
    response += '\n';
    if (!send_all(job.fd, response)) break;
  }
  ::close(job.fd);
}

bool LineServer::park(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  parked_fds_.push_back(fd);
  return true;
}

void LineServer::unpark(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = parked_fds_.begin(); it != parked_fds_.end(); ++it) {
    if (*it == fd) {
      parked_fds_.erase(it);
      return;
    }
  }
}

}  // namespace upa::serve::net
