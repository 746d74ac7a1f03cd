#include "upa/serve/telemetry.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "upa/serve/json.hpp"
#include "upa/serve/net.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve {

namespace {

/// The subscribe error envelope, newline-terminated.
std::string refusal(const Json& id, int code, const std::string& message) {
  return make_error_response(id, code, message).dump() + "\n";
}

Json span_attrs_json(const obs::Span& span) {
  Json attrs = Json::object();
  for (const obs::SpanAttribute& a : span.attributes) {
    attrs.set(a.key, a.is_number ? Json(a.number) : Json(a.text));
  }
  return attrs;
}

template <class Instruments, class Render>
void add_members(Json& out, const Instruments& instruments,
                 const std::string& prefix, Render render) {
  for (auto it = instruments.lower_bound(prefix);
       it != instruments.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string member = it->first.substr(prefix.size());
    if (member.empty() || member.find('.') != std::string::npos) continue;
    out.set(member, render(it->second));
  }
}

}  // namespace

Json histogram_json(const obs::Histogram& histogram) {
  Json h = Json::object();
  h.set("count", Json(static_cast<double>(histogram.count())));
  h.set("sum", Json(histogram.sum()));
  Json bounds = Json::array();
  for (const double b : histogram.upper_bounds()) bounds.push_back(Json(b));
  h.set("bounds", std::move(bounds));
  Json counts = Json::array();
  for (const std::uint64_t c : histogram.bucket_counts()) {
    counts.push_back(Json(static_cast<double>(c)));
  }
  h.set("counts", std::move(counts));
  h.set("mean", Json(histogram.count() == 0
                         ? 0.0
                         : histogram.sum() /
                               static_cast<double>(histogram.count())));
  return h;
}

Json members(const obs::MetricsRegistry& metrics, const std::string& prefix) {
  Json out = Json::object();
  add_members(out, metrics.gauges(), prefix,
              [](const obs::Gauge& gauge) { return Json(gauge.value()); });
  add_members(out, metrics.histograms(), prefix, histogram_json);
  return out;
}

TelemetryStreamer::TelemetryStreamer(TelemetryStreamerOptions options)
    : options_(std::move(options)) {}

TelemetryStreamer::~TelemetryStreamer() { stop(); }

TelemetryStreamer::Subscribe TelemetryStreamer::subscribe(
    int fd, const std::string& line) {
  // Cheap pre-filter: almost every request line lacks the literal and
  // skips the extra parse entirely.
  if (line.find("subscribe") == std::string::npos) {
    return Subscribe::kNotSubscribe;
  }
  Json request;
  try {
    request = parse_json(line);
  } catch (const std::exception&) {
    return Subscribe::kNotSubscribe;  // the handler answers the 400
  }
  if (!request.is_object()) return Subscribe::kNotSubscribe;
  const Json* method = request.find("method");
  if (method == nullptr || !method->is_string() ||
      method->as_string() != "subscribe") {
    return Subscribe::kNotSubscribe;
  }
  const Json* id_member = request.find("id");
  const Json id = id_member != nullptr ? *id_member : Json();

  double interval_ms = 500.0;
  const Json* params = request.find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    (void)net::send_all(fd, refusal(id, ErrorCode::kBadRequest,
                                    "'params' must be an object when "
                                    "present"));
    return Subscribe::kRefused;
  }
  if (params != nullptr && params->is_object()) {
    if (const Json* v = params->find("interval_ms"); v != nullptr) {
      if (!v->is_number() || !(v->as_number() >= 10.0) ||
          !(v->as_number() <= 60000.0)) {
        (void)net::send_all(
            fd, refusal(id, ErrorCode::kBadRequest,
                        "param 'interval_ms' must be a number in "
                        "[10, 60000]"));
        return Subscribe::kRefused;
      }
      interval_ms = v->as_number();
    }
  }

  Json result = Json::object();
  result.set("subscribed", Json(true));
  result.set("process", Json(options_.process));
  result.set("interval_ms", Json(interval_ms));
  const std::string ack = make_result_response(id, std::move(result)).dump();
  if (!add_subscriber(fd, interval_ms / 1000.0, ack)) {
    (void)net::send_all(fd, refusal(id, ErrorCode::kQueueFull,
                                    "telemetry subscriber limit reached"));
    return Subscribe::kRefused;
  }
  return Subscribe::kStreaming;
}

bool TelemetryStreamer::add_subscriber(int fd, double interval_seconds,
                                       const std::string& ack_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  reap_finished_locked();
  if (subscribers_.size() >= kMaxSubscribers) return false;

  auto subscriber = std::make_unique<Subscriber>();
  subscriber->fd = fd;
  subscriber->interval_seconds = interval_seconds;
  Subscriber* raw = subscriber.get();
  subscriber->thread = std::thread(
      [this, raw, ack = ack_line] { run_subscriber(raw, ack); });
  subscribers_.push_back(std::move(subscriber));
  return true;
}

void TelemetryStreamer::run_subscriber(Subscriber* subscriber,
                                       std::string ack_line) {
  std::size_t span_cursor = 0;
  std::uint64_t seq = 0;
  bool ok = net::send_all(subscriber->fd, ack_line + "\n");
  std::unique_lock<std::mutex> lock(mutex_);
  while (ok && !stopping_) {
    lock.unlock();
    const std::string payload = build_tick(seq++, span_cursor);
    ok = net::send_all(subscriber->fd, payload);
    lock.lock();
    if (!ok || stopping_) break;
    cv_.wait_for(
        lock,
        std::chrono::duration<double>(subscriber->interval_seconds),
        [this] { return stopping_; });
  }
  subscriber->done = true;
}

std::string TelemetryStreamer::build_tick(std::uint64_t seq,
                                          std::size_t& span_cursor) const {
  obs::MetricsRegistry registry;
  if (options_.fill_metrics) options_.fill_metrics(registry);
  std::uint64_t dropped = 0;
  std::vector<obs::Span> spans;
  if (options_.obs != nullptr) {
    std::lock_guard<std::mutex> lock(*options_.obs_mutex);
    dropped = options_.obs->tracer.dropped();
    const std::vector<obs::Span>& table = options_.obs->tracer.spans();
    spans.assign(table.begin() + static_cast<std::ptrdiff_t>(span_cursor),
                 table.end());
    span_cursor = table.size();
  }

  Json metrics = Json::object();
  metrics.set("telemetry", Json("metrics"));
  metrics.set("process", Json(options_.process));
  metrics.set("seq", Json(static_cast<double>(seq)));
  metrics.set("dropped_spans", Json(static_cast<double>(dropped)));
  Json counters = Json::object();
  for (const auto& [name, counter] : registry.counters()) {
    counters.set(name, Json(static_cast<double>(counter.value())));
  }
  metrics.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges.set(name, Json(gauge.value()));
  }
  metrics.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& [name, histogram] : registry.histograms()) {
    histograms.set(name, histogram_json(histogram));
  }
  metrics.set("histograms", std::move(histograms));

  std::string payload = metrics.dump() + "\n";
  for (const obs::Span& span : spans) {
    Json line = Json::object();
    line.set("telemetry", Json("span"));
    line.set("process", Json(options_.process));
    line.set("id", Json(static_cast<double>(span.id)));
    line.set("parent", Json(static_cast<double>(span.parent)));
    line.set("name", Json(span.name));
    line.set("level", Json(obs::span_level_name(span.level)));
    line.set("domain", Json(obs::time_domain_name(span.domain)));
    line.set("start", Json(span.start));
    line.set("end", Json(span.end));
    line.set("attrs", span_attrs_json(span));
    payload += line.dump() + "\n";
  }
  return payload;
}

void TelemetryStreamer::stop() {
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
    // Unblock any thread stuck in send(); harmless on finished fds
    // (they stay open until joined below -- threads never close fds).
    for (const auto& subscriber : subscribers_) {
      ::shutdown(subscriber->fd, SHUT_RDWR);
    }
    subscribers.swap(subscribers_);
  }
  for (const auto& subscriber : subscribers) {
    if (subscriber->thread.joinable()) subscriber->thread.join();
    ::close(subscriber->fd);
  }
}

void TelemetryStreamer::reap_finished_locked() {
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    if ((*it)->done) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = subscribers_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace upa::serve
