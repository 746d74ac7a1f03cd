// The connection layer shared by upa_served and upa_dispatch
// (upa/serve/net.hpp): graceful drain, idle keep-alive parking, and the
// telemetry subscriber limit. Every case runs against both daemons --
// serve::Server directly, and dispatch::Front in front of an in-process
// Server -- because both get their admission, worker pool and keep-alive
// loop from the same code and must behave the same at its edges.
//
// Naming note: ServeNet runs under the sanitizer CI jobs (their ctest
// regexes include it).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "upa/common/error.hpp"
#include "upa/dispatch/front.hpp"
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

/// The counters both daemons keep for their client connections.
struct Counts {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t requests = 0;
  std::size_t in_system = 0;
};

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
  [[nodiscard]] Counts counts() const {
    if (server_) {
      const auto s = server_->stats();
      return {s.accepted, s.completed, s.requests, s.in_system};
    }
    const auto s = front_->stats();
    return {s.accepted, s.completed, s.requests, s.in_system};
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

  const Counts counts = d.counts();
  EXPECT_EQ(counts.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(counts.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(counts.in_system, 0u);

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
  EXPECT_EQ(d.counts().in_system, 0u);
  EXPECT_GE(d.counts().requests, 1u);
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
  const Counts counts = d.counts();
  EXPECT_EQ(counts.completed, 1u);
  EXPECT_EQ(counts.requests, 0u);
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

}  // namespace
