#include "upa/dispatch/front.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::dispatch {

namespace {

constexpr std::size_t kOutcomeCount = 5;  // AttemptOutcome cardinality

AttemptOutcome from_call_outcome(serve::CallOutcome outcome) {
  switch (outcome) {
    case serve::CallOutcome::kOk: return AttemptOutcome::kOk;
    case serve::CallOutcome::kRejected: return AttemptOutcome::kRejected;
    case serve::CallOutcome::kDeadline: return AttemptOutcome::kDeadline;
    case serve::CallOutcome::kError: return AttemptOutcome::kError;
    case serve::CallOutcome::kTransportError:
      return AttemptOutcome::kTransport;
  }
  return AttemptOutcome::kTransport;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The parsed tree of a request line; null when it does not parse.
serve::Json parse_request(const std::string& line) {
  try {
    return serve::parse_json(line);
  } catch (const std::exception&) {
    // Unparseable lines are forwarded anyway: the upstream produces the
    // canonical 400 envelope, keeping responses byte-identical to a
    // direct connection.
    return serve::Json();
  }
}

/// Names one upstream's metrics: "dispatch.upstream.<host:port>.".
std::string upstream_prefix(const UpstreamAddress& address) {
  return "dispatch.upstream." + address.label() + ".";
}

}  // namespace

Front::Front(FrontConfig config)
    : config_(std::move(config)),
      pool_(config_.upstreams),
      balancer_(pool_, config_.policy),
      jitter_rng_(config_.retry.jitter_seed),
      net_([this] {
        serve::net::LineServerOptions o;
        o.owner = "Front";
        o.process_prefix = "upa_dispatch";
        o.bind_address = config_.bind_address;
        o.port = config_.port;
        o.workers = config_.workers;
        o.capacity = config_.max_clients;
        o.read_timeout_seconds = config_.read_timeout_seconds;
        o.reject_message = [](std::size_t max_clients) {
          return "dispatcher at max_clients (" +
                 std::to_string(max_clients) + ")";
        };
        o.handler = [this](const std::string& line,
                           serve::net::Request& request) {
          return respond_line(line, request);
        };
        // A subscriber to the front never counts against the upstreams'
        // admission: the front never forwards subscribe.
        o.telemetry.process = config_.telemetry_process;
        o.telemetry.fill_metrics = [this](obs::MetricsRegistry& metrics) {
          fill_metrics(metrics);
        };
        o.telemetry.obs = config_.obs;
        o.telemetry.obs_mutex = &latency_mutex_;
        return o;
      }()) {
  UPA_REQUIRE(config_.workers >= 1, "FrontConfig.workers must be >= 1");
  UPA_REQUIRE(config_.max_clients >= config_.workers,
              "FrontConfig.max_clients must be >= workers");
  UPA_REQUIRE(config_.read_timeout_seconds > 0.0,
              "FrontConfig.read_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.upstream_connect_timeout_seconds > 0.0,
              "FrontConfig.upstream_connect_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.upstream_call_timeout_seconds > 0.0,
              "FrontConfig.upstream_call_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.retry.max_attempts >= 1,
              "RetryConfig.max_attempts must be >= 1");
  UPA_REQUIRE(config_.retry.backoff_initial_seconds >= 0.0 &&
                  config_.retry.backoff_max_seconds >=
                      config_.retry.backoff_initial_seconds,
              "RetryConfig backoff bounds must satisfy 0 <= initial <= max");
  UPA_REQUIRE(config_.retry.jitter >= 0.0 && config_.retry.jitter <= 1.0,
              "RetryConfig.jitter must be in [0, 1]");
  check_health_config(config_.health);
  health_ = std::make_unique<HealthChecker>(pool_, config_.health);
  latency_by_outcome_.reserve(kOutcomeCount);
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    latency_by_outcome_.emplace_back(obs::geometric_buckets(1e-4, 2.0, 18));
  }
  latency_by_upstream_.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    latency_by_upstream_.emplace_back(
        obs::geometric_buckets(1e-4, 2.0, 18));
  }
  // Entropy, not determinism: originated trace ids must differ between
  // front processes even when everything else (ports, seeds) matches.
  trace_origin_base_ = (static_cast<std::uint64_t>(std::random_device{}())
                        << 32) ^
                       std::random_device{}();
}

Front::~Front() { stop(); }

void Front::start() {
  UPA_REQUIRE(!net_.running(), "Front::start called twice");
  health_->start();  // initial sweep runs before any traffic is forwarded
  try {
    net_.start();
  } catch (...) {
    health_->stop();
    throw;
  }
}

void Front::stop() {
  net_.stop();
  health_->stop();
}

obs::MetricsRegistry Front::stats() const {
  obs::MetricsRegistry snapshot;
  fill_metrics(snapshot);
  return snapshot;
}

std::vector<UpstreamSnapshot> Front::upstreams() const {
  return pool_.snapshot();
}

void Front::fill_metrics(obs::MetricsRegistry& metrics) const {
  net_.fill_metrics(metrics, "dispatch.");
  const auto set = [&metrics](const std::string& name,
                              const std::atomic<std::uint64_t>& counter) {
    metrics.gauge(name).set(static_cast<double>(counter.load()));
  };
  set("dispatch.requests", requests_);
  set("dispatch.forwarded_ok", forwarded_ok_);
  set("dispatch.forwarded_rejected", forwarded_rejected_);
  set("dispatch.forwarded_deadline", forwarded_deadline_);
  set("dispatch.forwarded_error", forwarded_error_);
  set("dispatch.forwarded_transport", forwarded_transport_);
  set("dispatch.retries", retries_);
  set("dispatch.failovers", failovers_);
  set("dispatch.retries_exhausted", retries_exhausted_);
  set("dispatch.stats_served", stats_served_);
  const std::vector<UpstreamSnapshot> snapshots = pool_.snapshot();
  std::lock_guard<std::mutex> lock(latency_mutex_);
  // Snapshot order is pool index order, so histogram i matches entry i.
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const UpstreamSnapshot& u = snapshots[i];
    const std::string prefix = upstream_prefix(u.address);
    const auto gauge = [&](const char* name, double value) {
      metrics.gauge(prefix + name).set(value);
    };
    gauge("healthy", u.healthy ? 1.0 : 0.0);
    gauge("outstanding", static_cast<double>(u.outstanding));
    gauge("attempts", static_cast<double>(u.attempts));
    gauge("ok", static_cast<double>(u.ok));
    gauge("rejected", static_cast<double>(u.rejected));
    gauge("deadline", static_cast<double>(u.deadline));
    gauge("errors", static_cast<double>(u.errors));
    gauge("transport", static_cast<double>(u.transport));
    gauge("probe_failures", static_cast<double>(u.probe_failures));
    gauge("ejections", static_cast<double>(u.ejections));
    gauge("readmissions", static_cast<double>(u.readmissions));
    metrics
        .histogram(prefix + "latency", latency_by_upstream_[i].upper_bounds())
        .merge_from(latency_by_upstream_[i]);
  }
  for (std::size_t i = 0; i < latency_by_outcome_.size(); ++i) {
    const std::string name =
        "dispatch.attempt_latency_seconds." +
        attempt_outcome_name(static_cast<AttemptOutcome>(i));
    metrics.histogram(name, latency_by_outcome_[i].upper_bounds())
        .merge_from(latency_by_outcome_[i]);
  }
}

ForwardAttempt Front::attempt_once(std::size_t index,
                                   const std::string& line,
                                   HeldUpstream& held,
                                   std::string& response_out) {
  const UpstreamAddress& address = pool_.address(index);
  pool_.begin_call(index);
  const Clock::time_point begin = Clock::now();
  ForwardAttempt attempt;
  attempt.upstream_index = index;
  const bool reuse = held.client.connected() && held.index == index;
  try {
    std::optional<std::string> response;
    if (reuse) response = held.client.try_call_line(line);
    if (!response) {
      // No held connection to this upstream, or a stale one: the client
      // connection gives up what it holds before connecting, so it
      // never holds two.
      held.client.close();
      held.client.connect(address.host, address.port,
                          config_.upstream_connect_timeout_seconds,
                          config_.upstream_call_timeout_seconds);
      held.index = index;
      response = held.client.call_line(line);
    }
    response_out = std::move(*response);
    attempt.outcome =
        from_call_outcome(serve::classify_response(response_out).outcome);
  } catch (const std::exception&) {
    attempt.outcome = AttemptOutcome::kTransport;
    response_out.clear();
  }
  // Only a definitive answer keeps the connection: after a 503 or 504
  // the replica is shedding load or draining, and after a transport
  // failure the connection's state is unknown.
  if (attempt.outcome != AttemptOutcome::kOk &&
      attempt.outcome != AttemptOutcome::kError) {
    held.client.close();
  }
  const double latency = seconds_between(begin, Clock::now());
  pool_.end_call(index, attempt.outcome, latency);
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latency_by_outcome_[static_cast<std::size_t>(attempt.outcome)].record(
        latency);
    latency_by_upstream_[index].record(latency);
  }
  return attempt;
}

void Front::backoff_sleep(std::size_t retry_number) {
  double delay = config_.retry.backoff_initial_seconds *
                 std::pow(2.0, static_cast<double>(retry_number - 1));
  delay = std::min(delay, config_.retry.backoff_max_seconds);
  if (delay <= 0.0) return;
  double u = 0.0;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    u = jitter_rng_.uniform01();
  }
  delay *= 1.0 - config_.retry.jitter * u;
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

std::string Front::exhausted_envelope(
    const serve::Json& request,
    const std::vector<ForwardAttempt>& attempts) const {
  // id stays null for an unparseable line, like the upstreams' own
  // envelopes for one.
  serve::Json id;
  if (const serve::Json* i = request.find("id"); i != nullptr) id = *i;
  serve::Json trail = serve::Json::array();
  for (const ForwardAttempt& a : attempts) {
    serve::Json entry = serve::Json::object();
    entry.set("upstream", serve::Json(pool_.address(a.upstream_index).label()));
    entry.set("outcome", serve::Json(attempt_outcome_name(a.outcome)));
    trail.push_back(std::move(entry));
  }
  // Same member order as make_error_response, plus the attempt trail.
  serve::Json error = serve::Json::object();
  error.set("code", serve::Json(serve::ErrorCode::kQueueFull));
  error.set("message", serve::Json("retries_exhausted"));
  error.set("attempts", std::move(trail));
  serve::Json envelope = serve::Json::object();
  envelope.set("id", id);
  envelope.set("ok", serve::Json(false));
  envelope.set("error", std::move(error));
  return envelope.dump();
}

ForwardResult Front::forward_line(const std::string& request_line) {
  HeldUpstream held;
  return forward_line_traced(request_line, parse_request(request_line),
                             held, 0, 0);
}

ForwardResult Front::forward_line_traced(const std::string& request_line,
                                         const serve::Json& request,
                                         HeldUpstream& held,
                                         std::uint64_t conn,
                                         std::uint64_t seq) {
  const Clock::time_point request_begin = Clock::now();

  // Trace setup. Balancer affinity and the exhausted envelope always use
  // the ORIGINAL client line; only the per-attempt upstream line is
  // rewritten with a trace context. A malformed incoming `trace` member
  // is forwarded verbatim and recorded as nothing -- the upstream's
  // dispatcher produces the canonical 400 envelope for it.
  bool record = false;
  std::string method = "?";
  serve::TraceContext context;
  if (config_.trace && config_.obs != nullptr && request.is_object()) {
    if (const serve::Json* m = request.find("method");
        m != nullptr && m->is_string()) {
      method = m->as_string();
    }
    try {
      if (const std::optional<serve::TraceContext> incoming =
              serve::parse_trace_context(request)) {
        context = *incoming;  // forward the client's trace decision
        record = context.sampled;
      } else {
        context.trace_id = serve::make_trace_id(
            trace_origin_base_ + origin_serial_.fetch_add(1) + 1);
        context.span_id = 0;
        context.sampled = true;
        record = true;
      }
    } catch (const common::ModelError&) {
      record = false;
    }
  }

  ForwardResult out;
  std::vector<TracedAttempt> traced;
  // Only consistent-hash reads the affinity key.
  const std::vector<std::size_t> order = balancer_.pick(
      balancer_.policy() == BalancePolicy::kConsistentHash
          ? affinity_key(request, request_line)
          : std::string(),
      held.client.connected() ? std::optional<std::size_t>(held.index)
                              : std::nullopt);
  const std::size_t budget = config_.retry.max_attempts;

  bool answered = false;
  for (std::size_t attempt_no = 0; attempt_no < budget && !answered;
       ++attempt_no) {
    // Walk the balancer's preference order: healthy replicas first, so
    // for budget <= N every retry lands on a different, untried
    // replica; past N the walk wraps (better a repeat than a give-up).
    const std::size_t index = order[attempt_no % order.size()];
    if (attempt_no > 0) {
      retries_.fetch_add(1);
      if (index != out.attempts.back().upstream_index) {
        failovers_.fetch_add(1);
      }
      backoff_sleep(attempt_no);
    }
    TracedAttempt span;
    span.upstream_index = index;
    std::string attempt_line = request_line;
    if (record) {
      // Each attempt gets a fresh span reference: the upstream's
      // serve_request span parents on exactly this attempt, so a retry
      // that lands on another replica stays distinguishable.
      span.ref = span_ref_.fetch_add(1);
      attempt_line = serve::with_trace_context(
          request,
          serve::TraceContext{context.trace_id, span.ref, true});
    }
    std::string response;
    span.begin = Clock::now();
    const ForwardAttempt attempt =
        attempt_once(index, attempt_line, held, response);
    span.end = Clock::now();
    span.outcome = attempt.outcome;
    out.attempts.push_back(attempt);
    traced.push_back(span);
    if (attempt.outcome == AttemptOutcome::kOk ||
        attempt.outcome == AttemptOutcome::kError) {
      // Definitive answers pass through verbatim; 400/404/500 are
      // deterministic and would only be recomputed by a retry.
      out.response_line = std::move(response);
      out.final_outcome = attempt.outcome;
      answered = true;
    }
  }

  if (!answered) {
    out.exhausted = true;
    out.final_outcome = out.attempts.back().outcome;
    out.response_line = exhausted_envelope(request, out.attempts);
    retries_exhausted_.fetch_add(1);
  }
  if (record) {
    record_request_trace(method, context, out, traced, request_begin,
                         conn, seq);
  }
  return out;
}

void Front::record_request_trace(const std::string& method,
                                 const serve::TraceContext& context,
                                 const ForwardResult& result,
                                 const std::vector<TracedAttempt>& attempts,
                                 Clock::time_point request_begin,
                                 std::uint64_t conn, std::uint64_t seq) {
  obs::Observer* ob = config_.obs;
  if (ob == nullptr) return;
  const AttemptOutcome client_visible =
      result.exhausted ? AttemptOutcome::kRejected : result.final_outcome;

  // The whole request's spans land as one complete batch under
  // latency_mutex_ -- the same lock the telemetry streamer copies spans
  // under -- so a subscriber never streams a root without its attempt
  // children. Steady-clock stamps are mapped onto the tracer's wall
  // timeline retrospectively, anchored at "now".
  std::lock_guard<std::mutex> lock(latency_mutex_);
  const Clock::time_point now = Clock::now();
  const double wall_now = ob->tracer.wall_now();
  const auto wall_at = [&](Clock::time_point tp) {
    return wall_now - seconds_between(tp, now);
  };

  const obs::SpanId root = ob->tracer.begin(
      obs::SpanLevel::kDispatchRequest, method, wall_at(request_begin),
      obs::TimeDomain::kWallSeconds);
  ob->tracer.attr(root, "trace_id", context.trace_id);
  ob->tracer.attr(root, "parent_span",
                  static_cast<double>(context.span_id));
  ob->tracer.attr(root, "conn", static_cast<double>(conn));
  ob->tracer.attr(root, "seq", static_cast<double>(seq));
  ob->tracer.attr(root, "outcome", attempt_outcome_name(client_visible));
  ob->tracer.attr(root, "attempts",
                  static_cast<double>(attempts.size()));
  if (result.exhausted) ob->tracer.attr(root, "exhausted", 1.0);
  for (const TracedAttempt& a : attempts) {
    const obs::SpanId child = ob->tracer.begin(
        obs::SpanLevel::kDispatchAttempt, "attempt", wall_at(a.begin),
        obs::TimeDomain::kWallSeconds, root);
    ob->tracer.attr(child, "ref", static_cast<double>(a.ref));
    ob->tracer.attr(child, "upstream",
                    pool_.address(a.upstream_index).label());
    ob->tracer.attr(child, "outcome", attempt_outcome_name(a.outcome));
    ob->tracer.end(child, wall_at(a.end));
  }
  ob->tracer.end(root, wall_now);
}

std::string Front::dispatch_stats_line(const serve::Json& request) {
  stats_served_.fetch_add(1);
  serve::Json id;
  if (const serve::Json* i = request.find("id"); i != nullptr) id = *i;
  const obs::MetricsRegistry snapshot = stats();
  serve::Json result = serve::members(snapshot, "dispatch.");
  result.set("policy", serve::Json(balance_policy_name(config_.policy)));
  result.set("upstream_count", serve::Json(pool_.size()));
  serve::Json upstreams = serve::Json::array();
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const UpstreamAddress& address = pool_.address(i);
    serve::Json entry = serve::members(snapshot, upstream_prefix(address));
    entry.set("address", serve::Json(address.label()));
    upstreams.push_back(std::move(entry));
  }
  result.set("upstreams", std::move(upstreams));
  return serve::make_result_response(id, std::move(result)).dump();
}

std::string Front::respond_line(const std::string& line,
                                serve::net::Request& request) {
  requests_.fetch_add(1);
  const serve::Json parsed = parse_request(line);
  if (const serve::Json* m = parsed.find("method");
      m != nullptr && m->is_string() && m->as_string() == "dispatch_stats") {
    return dispatch_stats_line(parsed);
  }

  if (!request.state) request.state = std::make_unique<HeldUpstream>();
  const ForwardResult fr = forward_line_traced(
      line, parsed, static_cast<HeldUpstream&>(*request.state), request.conn,
      request.seq);
  // Counters classify the response the client actually got: a spent
  // budget surfaces as the 503 retries_exhausted envelope, so it counts
  // as a rejection regardless of how the last attempt died.
  const AttemptOutcome client_visible =
      fr.exhausted ? AttemptOutcome::kRejected : fr.final_outcome;
  switch (client_visible) {
    case AttemptOutcome::kOk: forwarded_ok_.fetch_add(1); break;
    case AttemptOutcome::kRejected: forwarded_rejected_.fetch_add(1); break;
    case AttemptOutcome::kDeadline: forwarded_deadline_.fetch_add(1); break;
    case AttemptOutcome::kError: forwarded_error_.fetch_add(1); break;
    case AttemptOutcome::kTransport:
      forwarded_transport_.fetch_add(1);
      break;
  }
  return fr.response_line;
}

}  // namespace upa::dispatch
