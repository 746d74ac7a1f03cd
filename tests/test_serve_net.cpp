// The connection layer shared by upa_served and upa_dispatch
// (upa/serve/net.hpp): graceful drain, idle keep-alive parking, and the
// telemetry subscriber limit. Every case runs against both daemons --
// serve::Server directly, and dispatch::Front in front of an in-process
// Server -- because both get their admission, worker pool and keep-alive
// loop from the same code and must behave the same at its edges.
//
// ServeNetViews checks that each daemon's RPC, subscribe stream and C++
// snapshot agree on every counter after a mixed load. ServeNetClient
// pins the socket bounds of the protocol client built on the same
// helpers.
//
// Naming note: ServeNet and ServeNetViews run under the sanitizer CI
// jobs (their ctest regexes include them).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "upa/common/error.hpp"
#include "upa/dispatch/front.hpp"
#include "upa/obs/metrics.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/serve/server.hpp"
#include "upa/serve/telemetry.hpp"

namespace {

using upa::dispatch::Front;
using upa::dispatch::FrontConfig;
using upa::serve::Client;
using upa::serve::ErrorCode;
using upa::serve::Json;
using upa::serve::parse_json;
using upa::serve::Server;
using upa::serve::ServerConfig;

ServerConfig server_config(std::size_t workers, std::size_t capacity,
                           double read_timeout_seconds) {
  ServerConfig config;
  config.port = 0;
  config.workers = workers;
  config.capacity = capacity;
  config.read_timeout_seconds = read_timeout_seconds;
  return config;
}

enum class Kind { kServed, kDispatch };

// Names the parameter in test output: ServeNet.<Case>/Served.
void PrintTo(Kind kind, std::ostream* os) {
  *os << (kind == Kind::kServed ? "Served" : "Dispatch");
}

/// The daemon clients talk to, with the given admission and pool: a
/// Server (upa_served), or a Front (upa_dispatch) forwarding to one
/// roomy in-process Server.
class Daemon {
 public:
  Daemon(Kind kind, std::size_t workers, std::size_t capacity,
         double read_timeout_seconds) {
    if (kind == Kind::kServed) {
      server_ = std::make_unique<Server>(
          server_config(workers, capacity, read_timeout_seconds));
      return;
    }
    upstream_ = std::make_unique<Server>(server_config(4, 64, 10.0));
    upstream_->start();
    FrontConfig config;
    config.port = 0;
    config.upstreams = {{"127.0.0.1", upstream_->port()}};
    config.workers = workers;
    config.max_clients = capacity;
    config.read_timeout_seconds = read_timeout_seconds;
    front_ = std::make_unique<Front>(std::move(config));
  }

  void start() { server_ ? server_->start() : front_->start(); }
  void stop() { server_ ? server_->stop() : front_->stop(); }
  [[nodiscard]] std::uint16_t port() const {
    return server_ ? server_->port() : front_->port();
  }
  /// One of the gauges both daemons keep for their client connections
  /// (accepted, completed, requests, in_system, ...), from the snapshot.
  [[nodiscard]] double count(const std::string& name) const {
    return server_ ? server_->stats().gauges().at("serve." + name).value()
                   : front_->stats().gauges().at("dispatch." + name).value();
  }

 private:
  std::unique_ptr<Server> server_;
  std::unique_ptr<Server> upstream_;
  std::unique_ptr<Front> front_;  // destroyed before its upstream
};

class ServeNet : public ::testing::TestWithParam<Kind> {
 protected:
  [[nodiscard]] Daemon daemon(std::size_t workers, std::size_t capacity,
                              double read_timeout_seconds) const {
    return Daemon(GetParam(), workers, capacity, read_timeout_seconds);
  }
};

INSTANTIATE_TEST_SUITE_P(, ServeNet,
                         ::testing::Values(Kind::kServed, Kind::kDispatch));

TEST_P(ServeNet, GracefulShutdownDrainsAdmittedConnections) {
  // Four in-flight sleeps on two workers; stop() must serve all four
  // (drain, not abort), refuse new connections afterwards, and join
  // every thread before returning.
  Daemon d = daemon(2, 8, 10.0);
  d.start();

  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c;
      c.connect("127.0.0.1", d.port());
      Json params = Json::object();
      params.set("seconds", Json(0.15));
      if (c.call("sleep", std::move(params), i).ok()) ++ok_count;
    });
  }

  // Give all four time to be admitted, then stop while they sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  d.stop();

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);

  EXPECT_EQ(d.count("accepted"), kClients);
  EXPECT_EQ(d.count("completed"), kClients);
  EXPECT_EQ(d.count("in_system"), 0.0);

  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", d.port(), 0.5),
               upa::common::ModelError);
}

TEST_P(ServeNet, DrainTerminatesAgainstBusyKeepAliveClient) {
  // A kept-alive client that never stops issuing requests must not hold
  // stop() open: once the drain begins, the request in flight is served
  // and the connection is then closed. The test's real assertion is
  // that stop() returns at all.
  Daemon d = daemon(1, 2, 10.0);
  d.start();

  std::atomic<bool> client_done{false};
  std::thread client([&] {
    Client c;
    c.connect("127.0.0.1", d.port());
    for (std::uint64_t id = 0; id < 1000000; ++id) {
      if (!c.call("ping", Json(), id).ok()) break;  // closed by the drain
    }
    client_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  d.stop();
  client.join();
  EXPECT_TRUE(client_done.load());
  EXPECT_EQ(d.count("in_system"), 0.0);
  EXPECT_GE(d.count("requests"), 1.0);
}

TEST_P(ServeNet, IdleClientAfterAnEmptyLineDoesNotHoldTheDrain) {
  // An empty first line is skipped, and the read that follows it is
  // parked like any read between requests: stop() wakes it at once
  // instead of waiting out the 5 s read timeout.
  Daemon d = daemon(1, 2, 5.0);
  d.start();

  Client idle;
  idle.connect("127.0.0.1", d.port());
  idle.send_line("");
  // Let the worker take the connection and block on its next line.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto begin = std::chrono::steady_clock::now();
  d.stop();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_EQ(d.count("completed"), 1.0);
  EXPECT_EQ(d.count("requests"), 0.0);
}

TEST_P(ServeNet, FullSystemAnswersWithTheDaemonsRejectEnvelope) {
  // One connection holds the only slot; the next one gets the
  // pre-rendered 503 naming the bound it was judged against.
  Daemon d = daemon(1, 1, 10.0);
  d.start();
  Client holder;
  holder.connect("127.0.0.1", d.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client rejected;
  rejected.connect("127.0.0.1", d.port());
  const Json r = parse_json(rejected.read_line());
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kQueueFull);
  EXPECT_EQ(r.find("error")->find("message")->as_string(),
            GetParam() == Kind::kServed ? "server queue full (capacity 1)"
                                        : "dispatcher at max_clients (1)");
  holder.close();
  d.stop();
}

TEST_P(ServeNet, SubscriberLimitRefusesTheNextAndKeepsItsConnection) {
  Daemon d = daemon(2, 8, 10.0);
  d.start();
  const std::string subscribe =
      R"({"id": 1, "method": "subscribe", "params": {"interval_ms": 60000}})";

  std::vector<std::unique_ptr<Client>> subscribers;
  for (std::size_t k = 0; k < upa::serve::TelemetryStreamer::kMaxSubscribers;
       ++k) {
    auto c = std::make_unique<Client>();
    c->connect("127.0.0.1", d.port());
    const Json ack = parse_json(c->call_line(subscribe));
    ASSERT_TRUE(ack.find("ok")->as_bool()) << "subscriber " << k;
    subscribers.push_back(std::move(c));
  }

  // One past the limit: the 503 envelope, and the connection stays in
  // request mode.
  Client refused;
  refused.connect("127.0.0.1", d.port());
  const Json r = parse_json(refused.call_line(subscribe));
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kQueueFull);
  EXPECT_EQ(r.find("error")->find("message")->as_string(),
            "telemetry subscriber limit reached");
  EXPECT_TRUE(refused.call("ping", Json(), 2).ok());

  refused.close();
  subscribers.clear();
  d.stop();
}


// --- One snapshot, three views ---------------------------------------------
//
// Each daemon names its counters once; the stats / dispatch_stats RPC,
// every subscribe tick and the C++ snapshot render that one registry.
// After a mixed load the three must agree on every gauge and histogram.

using upa::obs::MetricsRegistry;

void expect_histogram(const Json& rendered, const upa::obs::Histogram& h,
                      const std::string& name) {
  EXPECT_EQ(rendered.find("count")->as_number(),
            static_cast<double>(h.count()))
      << name;
  EXPECT_EQ(rendered.find("sum")->as_number(), h.sum()) << name;
  const auto& counts = rendered.find("counts")->as_array();
  ASSERT_EQ(counts.size(), h.bucket_counts().size()) << name;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].as_number(),
              static_cast<double>(h.bucket_counts()[i]))
        << name << " bucket " << i;
  }
}

/// An RPC view: exactly one member per gauge and histogram named
/// `prefix` + member in `snapshot`, plus `extras` non-counter members.
/// `shift` holds what the view's own connection and call added to a
/// gauge before the view was rendered.
void expect_view(const Json& view, const MetricsRegistry& snapshot,
                 const std::string& prefix, std::size_t extras,
                 const std::map<std::string, double>& shift = {}) {
  const auto member_of = [&prefix](const std::string& name) {
    if (name.compare(0, prefix.size(), prefix) != 0) return std::string();
    const std::string member = name.substr(prefix.size());
    return member.find('.') == std::string::npos ? member : std::string();
  };
  std::size_t matched = 0;
  for (const auto& [name, gauge] : snapshot.gauges()) {
    const std::string member = member_of(name);
    if (member.empty()) continue;
    ++matched;
    const Json* value = view.find(member);
    ASSERT_NE(value, nullptr) << member;
    const auto delta = shift.find(member);
    EXPECT_EQ(value->as_number(),
              gauge.value() + (delta == shift.end() ? 0.0 : delta->second))
        << member;
  }
  for (const auto& [name, histogram] : snapshot.histograms()) {
    const std::string member = member_of(name);
    if (member.empty()) continue;
    ++matched;
    const Json* value = view.find(member);
    ASSERT_NE(value, nullptr) << member;
    expect_histogram(*value, histogram, member);
  }
  EXPECT_GT(matched, 0u) << prefix;
  EXPECT_EQ(view.as_object().size(), matched + extras) << prefix;
}

/// A subscribe tick: the whole snapshot, under the full names.
void expect_tick(const Json& tick, const MetricsRegistry& snapshot) {
  EXPECT_TRUE(tick.find("counters")->as_object().empty());
  const Json& gauges = *tick.find("gauges");
  EXPECT_EQ(gauges.as_object().size(), snapshot.gauges().size());
  for (const auto& [name, gauge] : snapshot.gauges()) {
    const Json* value = gauges.find(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_EQ(value->as_number(), gauge.value()) << name;
  }
  const Json& histograms = *tick.find("histograms");
  EXPECT_EQ(histograms.as_object().size(), snapshot.histograms().size());
  for (const auto& [name, histogram] : snapshot.histograms()) {
    const Json* value = histograms.find(name);
    ASSERT_NE(value, nullptr) << name;
    expect_histogram(*value, histogram, name);
  }
}

/// No connection in the system and every admitted one done.
bool idle(double accepted, double completed, double in_system) {
  return in_system == 0.0 && completed == accepted;
}

/// Polls a Server's or Front's snapshot until it is idle.
template <class Owner>
void wait_idle(const Owner& owner, const std::string& prefix) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const MetricsRegistry snapshot = owner.stats();
    const auto& g = snapshot.gauges();
    if (idle(g.at(prefix + "accepted").value(),
             g.at(prefix + "completed").value(),
             g.at(prefix + "in_system").value())) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << prefix << " never went idle";
}

/// Subscribes and returns the first metrics tick rendered once the
/// subscribe connection's own hand-off had settled (the daemon idle).
Json settled_tick(std::uint16_t port, const std::string& prefix) {
  Client subscriber;
  subscriber.connect("127.0.0.1", port, 5.0, 10.0);
  subscriber.send_line(
      R"({"id": 1, "method": "subscribe", "params": {"interval_ms": 20}})");
  EXPECT_TRUE(parse_json(subscriber.read_line()).find("ok")->as_bool());
  for (int i = 0; i < 500; ++i) {
    Json line = parse_json(subscriber.read_line());
    if (line.find("telemetry")->as_string() != "metrics") continue;
    const Json& g = *line.find("gauges");
    if (idle(g.find(prefix + "accepted")->as_number(),
             g.find(prefix + "completed")->as_number(),
             g.find(prefix + "in_system")->as_number())) {
      return line;
    }
  }
  ADD_FAILURE() << "no settled tick";
  return Json::object();
}

int code_of(const std::string& response_line) {
  return upa::serve::classify_response(response_line).code;
}

TEST(ServeNetViews, ServedStatsSubscribeAndSnapshotAgree) {
  // i = K = 1: the load connection holds the only slot, so a second
  // connection is refused at admission.
  Server server(server_config(1, 1, 10.0));
  server.start();
  {
    Client c;
    c.connect("127.0.0.1", server.port());
    EXPECT_TRUE(c.call("ping", Json(), 1).ok());
    EXPECT_EQ(code_of(c.call_line("{nope")), ErrorCode::kBadRequest);
    EXPECT_EQ(c.call("no_such_method", Json(), 3).code,
              ErrorCode::kUnknownMethod);
    EXPECT_EQ(code_of(c.call_line(
                  R"({"id": 4, "method": "sleep",)"
                  R"( "params": {"seconds": 0.05}, "deadline_ms": 5})")),
              ErrorCode::kDeadlineExceeded);
    Client refused;
    refused.connect("127.0.0.1", server.port());
    EXPECT_EQ(code_of(refused.read_line()), ErrorCode::kQueueFull);
  }
  wait_idle(server, "serve.");
  const MetricsRegistry before = server.stats();
  const auto& g = before.gauges();
  EXPECT_EQ(g.at("serve.requests").value(), 4.0);
  EXPECT_EQ(g.at("serve.rejected").value(), 1.0);
  EXPECT_EQ(g.at("serve.protocol_errors").value(), 1.0);
  EXPECT_EQ(g.at("serve.deadline_missed").value(), 1.0);

  // The stats connection is admitted, and in the system, while its
  // result is rendered; the call itself is counted after it answers.
  Client rpc;
  rpc.connect("127.0.0.1", server.port());
  const upa::serve::CallResult stats = rpc.call("stats", Json());
  rpc.close();
  ASSERT_TRUE(stats.ok());
  expect_view(*stats.result(), before, "serve.", 1,
              {{"accepted", 1.0}, {"in_system", 1.0}});
  expect_view(*stats.result()->find("method_latency"), before,
              "serve.method_latency.", 0);

  wait_idle(server, "serve.");
  const Json tick = settled_tick(server.port(), "serve.");
  expect_tick(tick, server.stats());
  server.stop();
}

TEST(ServeNetViews, DispatchStatsSubscribeAndSnapshotAgree) {
  std::uint16_t dead_port = 0;
  {
    Server gone(server_config(1, 1, 10.0));
    gone.start();
    dead_port = gone.port();
  }
  Server live(server_config(2, 8, 10.0));
  live.start();
  FrontConfig config;
  // Round-robin over {dead, live}: every other request fails over.
  config.upstreams = {{"127.0.0.1", dead_port}, {"127.0.0.1", live.port()}};
  config.policy = upa::dispatch::BalancePolicy::kRoundRobin;
  config.workers = 1;
  config.max_clients = 1;
  config.retry.backoff_initial_seconds = 0.001;
  config.retry.backoff_max_seconds = 0.002;
  // One initial sweep, then no probe for the rest of the test.
  config.health.probe_interval_seconds = 30.0;
  config.health.unhealthy_threshold = 1000;
  Front front(std::move(config));
  front.start();
  {
    Client c;
    c.connect("127.0.0.1", front.port());
    EXPECT_TRUE(c.call("ping", Json(), 1).ok());
    EXPECT_EQ(code_of(c.call_line("{nope")), ErrorCode::kBadRequest);
    EXPECT_EQ(c.call("no_such_method", Json(), 3).code,
              ErrorCode::kUnknownMethod);
    // The upstream's 504 is retried until the budget is spent.
    EXPECT_EQ(code_of(c.call_line(
                  R"({"id": 4, "method": "sleep",)"
                  R"( "params": {"seconds": 0.05}, "deadline_ms": 5})")),
              ErrorCode::kQueueFull);
    Client refused;
    refused.connect("127.0.0.1", front.port());
    EXPECT_EQ(code_of(refused.read_line()), ErrorCode::kQueueFull);
  }
  wait_idle(front, "dispatch.");
  const MetricsRegistry before = front.stats();
  const auto& g = before.gauges();
  EXPECT_EQ(g.at("dispatch.requests").value(), 4.0);
  EXPECT_EQ(g.at("dispatch.forwarded_ok").value(), 1.0);
  EXPECT_EQ(g.at("dispatch.forwarded_error").value(), 2.0);
  EXPECT_EQ(g.at("dispatch.retries_exhausted").value(), 1.0);
  EXPECT_EQ(g.at("dispatch.rejected").value(), 1.0);
  EXPECT_GE(g.at("dispatch.failovers").value(), 2.0);
  const std::string live_prefix =
      "dispatch.upstream.127.0.0.1:" + std::to_string(live.port()) + ".";
  EXPECT_GE(g.at(live_prefix + "deadline").value(), 1.0);

  // dispatch_stats counts itself as a request before rendering.
  Client rpc;
  rpc.connect("127.0.0.1", front.port());
  const upa::serve::CallResult stats = rpc.call("dispatch_stats", Json());
  rpc.close();
  ASSERT_TRUE(stats.ok());
  // policy, upstream_count and upstreams are not counters.
  expect_view(*stats.result(), before, "dispatch.", 3,
              {{"accepted", 1.0},
               {"in_system", 1.0},
               {"requests", 1.0},
               {"stats_served", 1.0}});
  const auto& upstreams = stats.result()->find("upstreams")->as_array();
  ASSERT_EQ(upstreams.size(), 2u);
  for (const Json& upstream : upstreams) {
    // address is the one non-counter member.
    expect_view(upstream, before,
                "dispatch.upstream." +
                    upstream.find("address")->as_string() + ".",
                1);
  }

  wait_idle(front, "dispatch.");
  const Json tick = settled_tick(front.port(), "dispatch.");
  expect_tick(tick, front.stats());
  front.stop();
  live.stop();
}

// --- The protocol client ---------------------------------------------

TEST(ServeNetClient, SendTimesOutOnAPeerThatStopsReading) {
  // A listener whose accepted connection never reads, with a tiny
  // receive window, so a multi-megabyte request line fills both socket
  // buffers and the client's send stalls.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int window = 4096;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &window, sizeof window);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);

  Client client;
  client.connect("127.0.0.1", ntohs(addr.sin_port), 1.0, 0.3);
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);

  const std::string line(8u << 20, 'x');
  std::future<void> call = std::async(std::launch::async, [&] {
    (void)client.call_line(line);
  });
  const bool returned =
      call.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // Closing the silent peer releases a send that never timed out, so a
  // missing bound fails the test instead of hanging it.
  ::close(accepted);
  ::close(listener);
  EXPECT_TRUE(returned) << "send to a peer that stopped reading never "
                           "timed out";
  EXPECT_THROW(call.get(), upa::common::ModelError);
}

}  // namespace
