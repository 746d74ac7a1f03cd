// upa_perfbench: the serving benchmark's load generator and in-process
// layer probe.
//
//   upa_perfbench --workload NAME --seed N [--connections C]
//
// Generates the workload's request lines from the seed, computes the
// reference response of every distinct line with serve::Dispatcher run
// in this process, prints one "ready" JSON line, then serves commands
// read from stdin, one per line, answering each with one JSON line on
// stdout. perfbench/run.py spawns the daemons under test and drives this
// process; see perfbench/README.md for the workloads and metrics.
//
// Commands:
//   load HOST PORT SECONDS RECORD   closed loop for SECONDS; RECORD=0 is
//                                   a warm-up whose samples are dropped
//   round HOST PORT RECORD          every thread runs its session list
//                                   exactly once (a campaign_restart
//                                   round, or a fixed-work warm-up)
//   steal STEAL_TICKS CPU_TICKS     /proc/stat jiffies over the last
//                                   recorded load or round
//   prepopulate HOST PORT           sends the pre-populated half of the
//                                   campaign grid over one connection
//   summary WINDOW_S                the recorded loads and rounds since
//                                   the last summary, grouped in order
//                                   into windows of >= WINDOW_S: medians
//                                   over the least disturbed windows of
//                                   each window's rps and percentiles
//   layers CACHE_DIR                in-process per-layer timings; the
//                                   cache tiers on a copy of a directory
//                                   `prepopulate` filled
//   hop HOST PORT HOST PORT N       single-connection ping direct / via
//                                   the dispatch front, and fresh-connect
//   subscribe HOST PORT             streams that daemon's spans into the
//                                   trace collector
//   traced HOST PORT SECONDS MAXREQ KIND ONCE
//                                   closed loop (or one round) with a
//                                   trace context on every request
//   trace_report                    per-layer self times of traced runs
//   quit
//
// Every response is compared byte for byte with its in-process
// reference: the wire protocol is deterministic and upa_dispatch
// forwards verbatim, so any difference is a defect.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/inject/campaign.hpp"
#include "upa/inject/injectors.hpp"
#include "upa/obs/collect.hpp"
#include "upa/profile/operational_profile.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/json.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/sim/rng.hpp"
#include "upa/ta/services.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

#ifndef UPA_PERFBENCH_BUILD_TYPE
#define UPA_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using upa::serve::Json;
using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- workload generation -------------------------------------------------

/// Requests the benchmark measures per method, in the order the layer
/// metrics report them.
const std::vector<std::string> kMethods = {
    "ping",           "mmck_metrics",           "web_farm_availability",
    "user_availability", "composite_availability", "run_campaign"};

/// Ping sessions: a keep-alive connection carries this many requests
/// before the client reconnects, so every workload has sessions.
constexpr std::size_t kPingSessionLength = 100;
constexpr std::size_t kPingDistinctLines = 1000;
constexpr std::size_t kClassBSessions = 2000;
constexpr std::size_t kSessionGridPoints = 6;
/// campaign_restart: grid size, and requests per session.
constexpr std::size_t kCampaignPoints = 96;
constexpr std::size_t kCampaignSessionLength = 8;

struct DesignPoint {
  std::size_t nw = 4;
  double alpha = 100.0;
  std::size_t buffer = 10;
};

std::string fmt(double v) { return upa::serve::format_number(v); }

std::string request_line(std::size_t id, const std::string& method,
                         const std::string& params) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"method\":\"" +
                     method + "\"";
  if (!params.empty()) line += ",\"params\":" + params;
  return line + "}";
}

std::string design_params(const DesignPoint& d, bool with_class) {
  std::string p = "{";
  if (with_class) p += "\"class\":\"B\",";
  return p + "\"nw\":" + std::to_string(d.nw) + ",\"alpha\":" +
         fmt(d.alpha) + ",\"buffer\":" + std::to_string(d.buffer) + "}";
}

std::string mmck_params(const DesignPoint& d) {
  return "{\"alpha\":" + fmt(d.alpha) + ",\"nu\":100,\"servers\":" +
         std::to_string(d.nw) + ",\"capacity\":" + std::to_string(d.buffer) +
         "}";
}

std::string line_for(const std::string& method, std::size_t id,
                     const DesignPoint& d) {
  if (method == "ping") return request_line(id, method, "");
  if (method == "mmck_metrics") return request_line(id, method, mmck_params(d));
  return request_line(id, method,
                      design_params(d, method == "user_availability"));
}

struct CampaignPoint {
  std::size_t nw = 4;
  std::uint64_t sim_seed = 0;
};

std::string campaign_line(std::size_t id, const CampaignPoint& c) {
  return request_line(
      id, "run_campaign",
      "{\"class\":\"B\",\"nw\":" + std::to_string(c.nw) +
          ",\"sessions\":100,\"reps\":2,\"horizon\":200,"
          "\"outage_start\":50,\"seed\":" +
          std::to_string(c.sim_seed) + "}");
}

/// Seeded choice of `count` distinct session design points.
std::vector<DesignPoint> session_grid(std::uint64_t seed) {
  std::vector<DesignPoint> all;
  for (std::size_t nw : {2, 3, 4, 5, 6}) {
    for (double alpha : {60.0, 100.0, 140.0}) {
      for (std::size_t buffer : {8, 10, 12}) all.push_back({nw, alpha, buffer});
    }
  }
  upa::sim::Xoshiro256 rng(seed ^ 0x5e55105ULL);
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng() % (i + 1)]);
  }
  all.resize(kSessionGridPoints);
  return all;
}

std::vector<CampaignPoint> campaign_grid(std::uint64_t seed) {
  upa::sim::Xoshiro256 rng(seed ^ 0xca4a16ULL);
  std::vector<CampaignPoint> out;
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  while (out.size() < kCampaignPoints) {
    const CampaignPoint c{2 + static_cast<std::size_t>(rng() % 6),
                          1 + rng() % 1000000};
    if (seen.insert({c.nw, c.sim_seed}).second) out.push_back(c);
  }
  return out;
}

std::size_t sample_transition(const upa::profile::OperationalProfile& profile,
                              std::size_t state, upa::sim::Xoshiro256& rng) {
  const auto row = profile.transition_matrix().row(state);
  const double u = rng.uniform01();
  double cumulative = 0.0;
  for (std::size_t next = 0; next < row.size(); ++next) {
    cumulative += row[next];
    if (u < cumulative) return next;
  }
  return profile.exit_state();
}

/// Distinct request lines, each with its in-process reference response.
class LineTable {
 public:
  std::size_t add(const std::string& line) {
    const auto [it, fresh] = index_.emplace(line, lines_.size());
    if (fresh) lines_.push_back(line);
    return it->second;
  }
  [[nodiscard]] const std::string& line(std::size_t i) const {
    return lines_[i];
  }
  [[nodiscard]] const std::string& reference(std::size_t i) const {
    return references_[i];
  }
  [[nodiscard]] std::size_t size() const { return lines_.size(); }
  void compute_references(const upa::serve::Dispatcher& dispatcher,
                          std::size_t from) {
    references_.resize(lines_.size());
    for (std::size_t i = from; i < lines_.size(); ++i) {
      references_[i] = dispatcher.dispatch_line(lines_[i]);
    }
  }

 private:
  std::vector<std::string> lines_;
  std::vector<std::string> references_;
  std::unordered_map<std::string, std::size_t> index_;
};

using Session = std::vector<std::size_t>;  // line indices

struct Workload {
  LineTable table;
  /// Per client thread: the sessions it runs, in order.
  std::vector<std::vector<Session>> sessions;
  /// campaign_restart only: the pre-populated half of the grid, and the
  /// cache counts a round must reproduce.
  std::vector<std::size_t> prepopulated;
  Json implied = Json::object();
  /// One line per method (from this seed's generators), for the
  /// in-process protocol timings.
  std::map<std::string, std::string> method_lines;
  std::vector<DesignPoint> grid;
  std::vector<CampaignPoint> campaign;
};

double cache_misses() {
  return static_cast<double>(upa::cache::global().stats().misses);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t connections,
                       const upa::serve::Dispatcher& dispatcher) {
  Workload w;
  w.sessions.resize(connections);
  w.grid = session_grid(seed);
  w.campaign = campaign_grid(seed);
  for (const std::string& m : kMethods) {
    w.method_lines[m] = m == "run_campaign"
                            ? campaign_line(0, w.campaign.front())
                            : line_for(m, 1, w.grid.front());
  }

  upa::sim::Xoshiro256 rng(seed);
  if (name == "ping_direct" || name == "ping_dispatch") {
    std::vector<std::size_t> lines;
    for (std::size_t i = 0; i < kPingDistinctLines; ++i) {
      lines.push_back(
          w.table.add(request_line(rng() % 1000000000, "ping", "")));
    }
    const std::size_t per_ring = kPingDistinctLines / kPingSessionLength;
    for (std::size_t t = 0; t < connections; ++t) {
      for (std::size_t k = 0; k < per_ring; ++k) {
        const std::size_t chunk = (k + t * 3) % per_ring;
        w.sessions[t].emplace_back(lines.begin() + chunk * kPingSessionLength,
                                   lines.begin() +
                                       (chunk + 1) * kPingSessionLength);
      }
    }
    w.table.compute_references(dispatcher, 0);
  } else if (name == "session_b") {
    const upa::profile::OperationalProfile profile =
        upa::ta::fitted_session_graph(upa::ta::UserClass::kB);
    for (std::size_t s = 0; s < kClassBSessions; ++s) {
      const DesignPoint& d = w.grid[rng() % w.grid.size()];
      Session session;
      std::size_t state = upa::profile::NodeIndex::kStart;
      while (true) {
        state = sample_transition(profile, state, rng);
        if (state == profile.exit_state()) break;
        const std::string method = upa::serve::method_for_function(
            profile.function_name(state - 1));
        session.push_back(w.table.add(line_for(method, session.size(), d)));
      }
      if (session.empty()) continue;
      w.sessions[s % connections].push_back(std::move(session));
    }
    w.table.compute_references(dispatcher, 0);
  } else if (name == "campaign_restart") {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < w.campaign.size(); ++i) {
      ids.push_back(w.table.add(campaign_line(i, w.campaign[i])));
      if (i % 2 == 0) w.prepopulated.push_back(ids.back());
    }
    // Implied cache counts: on an empty in-process cache, the keys the
    // pre-populated half touches are what the directory holds (disk hits
    // in a round); the keys only the rest touches are the misses, and
    // each is appended once.
    upa::cache::global().clear();
    upa::cache::global().reset_stats();
    std::vector<std::string> refs(ids.size());
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      refs[i] = dispatcher.dispatch_line(w.table.line(ids[i]));
    }
    const double on_disk = cache_misses();
    for (std::size_t i = 1; i < ids.size(); i += 2) {
      refs[i] = dispatcher.dispatch_line(w.table.line(ids[i]));
    }
    const double all_keys = cache_misses();
    w.table.compute_references(dispatcher, 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (refs[i] != w.table.reference(ids[i])) {
        throw std::runtime_error(
            "computed and cache-replayed campaign responses differ for " +
            w.table.line(ids[i]));
      }
    }
    w.implied.set("disk_hits", Json(on_disk));
    w.implied.set("misses", Json(all_keys - on_disk));
    w.implied.set("records_appended", Json(all_keys - on_disk));
    w.implied.set("records_indexed", Json(on_disk));
    for (std::size_t t = 0; t < connections; ++t) {
      std::vector<std::size_t> mine;
      for (std::size_t i = t; i < ids.size(); i += connections) {
        mine.push_back(ids[i]);
      }
      std::vector<std::size_t> twice = mine;
      twice.insert(twice.end(), mine.begin(), mine.end());
      for (std::size_t at = 0; at < twice.size();
           at += kCampaignSessionLength) {
        const std::size_t end =
            std::min(twice.size(), at + kCampaignSessionLength);
        w.sessions[t].emplace_back(twice.begin() + at, twice.begin() + end);
      }
    }
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

// --- closed-loop load -----------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;   // 503
  std::uint64_t deadline = 0;   // 504
  std::uint64_t transport = 0;
  std::uint64_t other_error = 0;
  std::uint64_t mismatched = 0;  // ok envelope, wrong bytes
  std::vector<float> latency_us;  // failed requests count as +inf
  std::vector<float> session_us;
  double elapsed_s = 0.0;
  /// /proc/stat jiffies over the segment (from the `steal` command):
  /// time the hypervisor ran other guests, and all CPU time.
  std::uint64_t steal_ticks = 0;
  std::uint64_t cpu_ticks = 0;

  void merge(const Tally& t) {
    attempted += t.attempted;
    ok += t.ok;
    rejected += t.rejected;
    deadline += t.deadline;
    transport += t.transport;
    other_error += t.other_error;
    mismatched += t.mismatched;
    latency_us.insert(latency_us.end(), t.latency_us.begin(),
                      t.latency_us.end());
    session_us.insert(session_us.end(), t.session_us.begin(),
                      t.session_us.end());
    steal_ticks += t.steal_ticks;
    cpu_ticks += t.cpu_ticks;
  }
  [[nodiscard]] double steal_frac() const {
    return cpu_ticks == 0 ? 0.0
                          : static_cast<double>(steal_ticks) /
                                static_cast<double>(cpu_ticks);
  }
};

/// One traced request seen from the client: its trace id, latency, and
/// whether it belongs to the workload or the dispatch-hop probe.
struct ClientSpan {
  std::string trace_id;
  double latency_us = 0.0;
  bool workload = true;
};

struct TraceOptions {
  bool on = false;
  bool workload = true;
};

std::atomic<std::uint64_t> g_trace_serial{1};

/// The request line with a sampled trace context appended.
std::string traced_line(const std::string& line, const std::string& id) {
  return line.substr(0, line.size() - 1) + ",\"trace\":{\"trace_id\":\"" +
         id + "\",\"span_id\":0,\"sampled\":true}}";
}

void classify_failure(const std::string& response, Tally& t) {
  const upa::serve::CallResult r = upa::serve::classify_response(response);
  switch (r.outcome) {
    case upa::serve::CallOutcome::kOk: ++t.mismatched; break;
    case upa::serve::CallOutcome::kRejected: ++t.rejected; break;
    case upa::serve::CallOutcome::kDeadline: ++t.deadline; break;
    case upa::serve::CallOutcome::kError: ++t.other_error; break;
    case upa::serve::CallOutcome::kTransportError: ++t.transport; break;
  }
}

/// Runs one session on a fresh connection. A failed request ends the
/// session: its remaining requests are not sent.
void run_session(const std::string& host, std::uint16_t port,
                 const LineTable& table, const Session& session,
                 bool record, const TraceOptions& trace, Tally& t,
                 std::vector<ClientSpan>* spans) {
  constexpr float kFailed = std::numeric_limits<float>::infinity();
  const Clock::time_point session_start = Clock::now();
  upa::serve::Client client;
  try {
    client.connect(host, port, 5.0, 30.0);
  } catch (const std::exception&) {
    ++t.attempted;
    ++t.transport;
    if (record) {
      t.latency_us.push_back(kFailed);
      t.session_us.push_back(kFailed);
    }
    return;
  }
  bool session_ok = true;
  for (const std::size_t i : session) {
    std::string trace_id;
    std::string line = table.line(i);
    if (trace.on) {
      trace_id = upa::serve::make_trace_id(g_trace_serial.fetch_add(1));
      line = traced_line(line, trace_id);
    }
    const Clock::time_point begin = Clock::now();
    std::string response;
    bool transport_ok = true;
    try {
      response = client.call_line(line);
    } catch (const std::exception&) {
      transport_ok = false;
    }
    const double us = micros_between(begin, Clock::now());
    const bool ok = transport_ok && response == table.reference(i);
    ++t.attempted;
    if (ok) {
      ++t.ok;
    } else if (!transport_ok) {
      ++t.transport;
    } else {
      classify_failure(response, t);
    }
    if (record) t.latency_us.push_back(ok ? static_cast<float>(us) : kFailed);
    if (ok && spans != nullptr) {
      spans->push_back({trace_id, us, trace.workload});
    }
    if (!ok) {
      session_ok = false;
      break;
    }
  }
  if (record) {
    t.session_us.push_back(
        session_ok
            ? static_cast<float>(micros_between(session_start, Clock::now()))
            : kFailed);
  }
}

/// Closed loop: one thread per connection, each cycling its session
/// list until `seconds` elapse (or once through, when `once`). The
/// deadline is checked between sessions.
Tally run_closed_loop(const Workload& w, const std::string& host,
                      std::uint16_t port, double seconds, bool once,
                      bool record, const TraceOptions& trace,
                      std::uint64_t max_requests,
                      std::vector<ClientSpan>* spans) {
  const std::size_t n = w.sessions.size();
  std::vector<Tally> tallies(n);
  std::vector<std::vector<ClientSpan>> thread_spans(n);
  std::atomic<std::uint64_t> issued{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Session>& mine = w.sessions[t];
      for (std::size_t k = 0;; ++k) {
        if (once ? k == mine.size() : Clock::now() >= deadline) break;
        if (max_requests > 0 && issued.load() >= max_requests) break;
        const Session& s = mine[k % mine.size()];
        issued.fetch_add(s.size());
        run_session(host, port, w.table, s, record, trace, tallies[t],
                    spans != nullptr ? &thread_spans[t] : nullptr);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Tally out;
  for (const Tally& t : tallies) out.merge(t);
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (spans != nullptr) {
    for (const auto& v : thread_spans) {
      spans->insert(spans->end(), v.begin(), v.end());
    }
  }
  return out;
}

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t at = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return static_cast<double>(v[at]);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// JSON number that stays finite (a failed request's +inf latency makes
/// a percentile infinite; JSON has no infinity).
Json finite_json(double v) { return Json(std::isfinite(v) ? v : 1e18); }

Json tally_json(const Tally& t) {
  Json out = Json::object();
  out.set("attempted", Json(static_cast<double>(t.attempted)));
  out.set("ok", Json(static_cast<double>(t.ok)));
  out.set("rejected", Json(static_cast<double>(t.rejected)));
  out.set("deadline", Json(static_cast<double>(t.deadline)));
  out.set("transport", Json(static_cast<double>(t.transport)));
  out.set("other_error", Json(static_cast<double>(t.other_error)));
  out.set("mismatched", Json(static_cast<double>(t.mismatched)));
  out.set("elapsed_s", Json(t.elapsed_s));
  return out;
}

/// Share of CPU time the hypervisor may steal from a window before the
/// window counts as disturbed from outside the benchmark.
constexpr double kMaxWindowSteal = 0.02;

/// Groups consecutive segments into windows of at least `window_s`
/// measured seconds and reports, per metric, the median over windows.
/// A window's median resists a burst of interference from outside the
/// benchmark that a whole-run aggregate would absorb. Windows whose
/// steal share exceeds kMaxWindowSteal are left out, but never more than
/// half of them: when most windows were disturbed, the half with the
/// least steal is kept.
Json summarize(const std::vector<Tally>& segments, double window_s) {
  std::vector<Tally> windows;
  Tally all;
  Tally current;
  for (const Tally& s : segments) {
    current.merge(s);
    current.elapsed_s += s.elapsed_s;
    all.merge(s);
    all.elapsed_s += s.elapsed_s;
    if (current.elapsed_s >= window_s) {
      windows.push_back(std::move(current));
      current = Tally{};
    }
  }
  // A short tail joins the last window rather than forming its own.
  if (current.attempted > 0) {
    if (windows.empty()) {
      windows.push_back(std::move(current));
    } else {
      windows.back().merge(current);
      windows.back().elapsed_s += current.elapsed_s;
    }
  }
  std::vector<const Tally*> kept;
  for (const Tally& w : windows) kept.push_back(&w);
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Tally* a, const Tally* b) {
                     return a->steal_frac() < b->steal_frac();
                   });
  std::size_t keep = (kept.size() + 1) / 2;
  while (keep < kept.size() && kept[keep]->steal_frac() <= kMaxWindowSteal) {
    ++keep;
  }
  kept.resize(keep);
  const auto over_windows = [&](auto&& metric) {
    std::vector<double> v;
    for (const Tally* w : kept) v.push_back(metric(*w));
    return finite_json(median_of(v));
  };
  Json out = tally_json(all);
  out.set("windows", Json(windows.size()));
  out.set("windows_kept", Json(kept.size()));
  out.set("steal_frac", Json(all.steal_frac()));
  out.set("latency_samples",
          Json(static_cast<double>(all.latency_us.size())));
  out.set("session_samples",
          Json(static_cast<double>(all.session_us.size())));
  out.set("rps", over_windows([](const Tally& w) {
            return static_cast<double>(w.ok) / w.elapsed_s;
          }));
  out.set("ok_frac", Json(all.attempted == 0
                              ? 0.0
                              : static_cast<double>(all.ok) /
                                    static_cast<double>(all.attempted)));
  out.set("p50_us", over_windows([](const Tally& w) {
            return percentile(w.latency_us, 0.50);
          }));
  out.set("p99_us", over_windows([](const Tally& w) {
            return percentile(w.latency_us, 0.99);
          }));
  out.set("session_p50_us", over_windows([](const Tally& w) {
            return percentile(w.session_us, 0.50);
          }));
  out.set("session_p99_us", over_windows([](const Tally& w) {
            return percentile(w.session_us, 0.99);
          }));
  return out;
}

// --- in-process layer timings --------------------------------------------

/// Median over `batches` batches of the mean time of one call, in µs.
/// Each batch runs at least `min_calls` calls and ~5 ms.
template <typename Fn>
double time_us(Fn&& fn, std::size_t batches = 7, std::size_t min_calls = 3) {
  fn();  // warm
  std::vector<double> per_call;
  for (std::size_t b = 0; b < batches; ++b) {
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (calls < min_calls || now - start < std::chrono::milliseconds(5)) {
      fn();
      ++calls;
      now = Clock::now();
    }
    per_call.push_back(micros_between(start, now) /
                       static_cast<double>(calls));
  }
  return median_of(per_call);
}

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

upa::ta::TaParameters design_ta(const DesignPoint& d) {
  upa::ta::TaParameters p = upa::ta::TaParameters::paper_defaults();
  p.n_web = d.nw;
  p.alpha = d.alpha;
  p.buffer = d.buffer;
  p.validate();
  return p;
}

Json layers(const Workload& w, const Workload& campaign,
            const upa::serve::Dispatcher& dispatcher,
            const std::string& cache_dir) {
  Json m = Json::object();
  // Protocol and JSON, per method, with the cache warm.
  for (const std::string& method : kMethods) {
    const std::string& line = w.method_lines.at(method);
    const std::string response = dispatcher.dispatch_line(line);
    const Json tree = upa::serve::parse_json(response);
    m.set("protocol.dispatch_line_us." + method, Json(time_us([&] {
            keep(dispatcher.dispatch_line(line));
          })));
    m.set("json.parse_us." + method,
          Json(time_us([&] { keep(upa::serve::parse_json(response)); })));
    m.set("json.dump_us." + method, Json(time_us([&] { keep(tree.dump()); })));
  }

  // Kernels, with the evaluation cache off so each call computes.
  {
    upa::cache::ScopedEnable off(false);
    const DesignPoint& browse = w.grid.front();
    m.set("queueing.mmck_metrics_us", Json(time_us([&] {
            keep(upa::queueing::mmck_metrics(browse.alpha, 100.0, browse.nw,
                                             browse.buffer));
          })));
    m.set("queueing.mmck_metrics_us.k1000", Json(time_us([&] {
            keep(upa::queueing::mmck_metrics(100.0, 100.0, 4, 1000));
          })));
    const std::string k1000 = dispatcher.dispatch_line(request_line(
        1, "mmck_metrics",
        "{\"alpha\":100,\"nu\":100,\"servers\":4,\"capacity\":1000}"));
    const Json k1000_tree = upa::serve::parse_json(k1000);
    m.set("json.parse_us.mmck_k1000",
          Json(time_us([&] { keep(upa::serve::parse_json(k1000)); })));
    m.set("json.dump_us.mmck_k1000",
          Json(time_us([&] { keep(k1000_tree.dump()); })));

    DesignPoint largest = w.grid.front();
    for (const DesignPoint& d : w.grid) {
      if (d.nw > largest.nw) largest = d;
    }
    const upa::markov::Ctmc chain =
        upa::core::imperfect_coverage_chain(
            upa::ta::web_farm_params(design_ta(largest)))
            .chain;
    m.set("markov.steady_state_us",
          Json(time_us([&] { keep(chain.steady_state_robust()); })));

    const upa::ta::TaParameters p = design_ta(w.grid.front());
    m.set("ta.eq10_us", Json(time_us([&] {
            keep(upa::ta::user_availability_eq10(upa::ta::UserClass::kB, p));
          })));
    m.set("ta.category_breakdown_us", Json(time_us([&] {
            keep(upa::ta::category_breakdown(upa::ta::UserClass::kB, p));
          })));

    const CampaignPoint& c = w.campaign.front();
    upa::ta::TaParameters cp = upa::ta::TaParameters::paper_defaults();
    cp.n_web = c.nw;
    cp.validate();
    upa::inject::CampaignOptions options;
    options.end_to_end.horizon_hours = 200.0;
    options.end_to_end.sessions_per_replication = 100;
    options.end_to_end.replications = 2;
    options.end_to_end.seed = c.sim_seed;
    options.end_to_end.threads = 1;
    options.threads = 1;
    const upa::inject::FaultTarget target =
        upa::inject::fault_target_from_name("web-farm");
    const std::vector<upa::inject::CampaignPlan> plans = {
        {upa::inject::fault_target_name(target) + " outage",
         upa::inject::scripted_outage(target, 50.0, 2.0, 200.0)}};
    m.set("inject.run_campaign_us", Json(time_us(
                                        [&] {
                                          keep(upa::inject::run_campaign(
                                              upa::ta::UserClass::kB, cp,
                                              options, plans));
                                        },
                                        5, 3)));
  }

  // Cache tiers, through the protocol as the daemon serves them: attach
  // the pre-populated directory, then per pre-populated point a request
  // on an emptied memory tier (every key a disk hit) and the same
  // request again (every key a memory hit).
  {
    upa::cache::global().clear();
    const Clock::time_point a = Clock::now();
    (void)upa::cache::attach_global_persistence(cache_dir);
    m.set("cache.attach_ms", Json(micros_between(a, Clock::now()) / 1000.0));
    std::vector<double> disk;
    std::vector<double> mem;
    for (int pass = 0; pass < 3; ++pass) {
      for (const std::size_t i : campaign.prepopulated) {
        upa::cache::global().clear();
        Clock::time_point t0 = Clock::now();
        keep(dispatcher.dispatch_line(campaign.table.line(i)));
        disk.push_back(micros_between(t0, Clock::now()));
        t0 = Clock::now();
        keep(dispatcher.dispatch_line(campaign.table.line(i)));
        mem.push_back(micros_between(t0, Clock::now()));
      }
    }
    m.set("cache.disk_hit_us", Json(median_of(disk)));
    m.set("cache.mem_hit_us", Json(median_of(mem)));
  }
  return m;
}

// --- single-connection hop probe -----------------------------------------

/// Median single-connection latency of `n` pings on one connection.
double ping_p50(const std::string& host, std::uint16_t port, std::size_t n,
                const std::string& line, const std::string& reference) {
  upa::serve::Client client;
  client.connect(host, port, 5.0, 30.0);
  std::vector<double> us;
  for (std::size_t i = 0; i < n + n / 10; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::string r = client.call_line(line);
    const double d = micros_between(t0, Clock::now());
    if (r != reference) throw std::runtime_error("hop probe: wrong response");
    if (i >= n / 10) us.push_back(d);  // first tenth warms up
  }
  return median_of(us);
}

Json hop(const upa::serve::Dispatcher& dispatcher, const std::string& dhost,
         std::uint16_t dport, const std::string& fhost, std::uint16_t fport,
         std::size_t n) {
  const std::string line = request_line(7, "ping", "");
  const std::string reference = dispatcher.dispatch_line(line);
  Json out = Json::object();
  const double direct = ping_p50(dhost, dport, n, line, reference);
  const double via = ping_p50(fhost, fport, n, line, reference);
  std::vector<double> connect;
  for (std::size_t i = 0; i < n / 4; ++i) {
    const Clock::time_point t0 = Clock::now();
    upa::serve::Client client;
    client.connect(dhost, dport, 5.0, 30.0);
    if (client.call_line(line) != reference) {
      throw std::runtime_error("hop probe: wrong response");
    }
    connect.push_back(micros_between(t0, Clock::now()));
  }
  out.set("ping_direct_1conn_p50_us", Json(direct));
  out.set("ping_dispatch_1conn_p50_us", Json(via));
  out.set("connect_us", Json(median_of(connect)));
  return out;
}

// --- trace collection -----------------------------------------------------

class Subscriptions {
 public:
  explicit Subscriptions(upa::obs::TraceCollector& collector)
      : collector_(collector) {}
  ~Subscriptions() { stop(); }
  Subscriptions(const Subscriptions&) = delete;
  Subscriptions& operator=(const Subscriptions&) = delete;

  void add(const std::string& host, std::uint16_t port) {
    auto client = std::make_unique<upa::serve::Client>();
    client->connect(host, port, 5.0, 30.0);
    client->send_line(
        "{\"id\":1,\"method\":\"subscribe\",\"params\":{\"interval_ms\":50}}");
    upa::serve::Client* c = client.get();
    clients_.push_back(std::move(client));
    threads_.emplace_back([this, c] {
      try {
        (void)c->read_line();  // the subscribe ack
        for (;;) collector_.ingest_line(c->read_line());
      } catch (const std::exception&) {
        // EOF or shutdown: the subscription is over.
      }
    });
  }

  void stop() {
    for (auto& c : clients_) c->shutdown_both();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    clients_.clear();
  }

 private:
  upa::obs::TraceCollector& collector_;
  std::vector<std::unique_ptr<upa::serve::Client>> clients_;
  std::vector<std::thread> threads_;
};

/// Waits until the subscriptions have delivered the traced backlog (at
/// most 10 s), so the caller can stop the daemons without losing spans
/// still in flight. Drained means under 50 new span lines in 300 ms: the
/// daemons' own health-probe pings keep a trickle of spans coming.
void drain(const upa::obs::TraceCollector& collector) {
  const auto span_lines = [&] {
    std::uint64_t n = 0;
    for (const upa::obs::ProcessIngest& p : collector.processes()) {
      n += p.span_lines;
    }
    return n;
  };
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  std::uint64_t seen = span_lines();
  while (Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::uint64_t now_seen = span_lines();
    if (now_seen - seen < 50) break;
    seen = now_seen;
  }
}

double span_us(const upa::obs::CollectedSpan* s) {
  return s == nullptr ? 0.0 : (s->end - s->start) * 1e6;
}

/// Per-layer self times over every traced request: a span's duration
/// minus the part its child spans cover. Medians per layer, plus the
/// part of the median workload latency that no layer accounts for.
Json trace_report(const upa::obs::TraceCollector& collector,
                  const std::vector<ClientSpan>& client_spans) {
  const upa::obs::ReassemblyReport report = collector.reassemble();
  std::unordered_map<std::string, const upa::obs::TraceRequest*> by_id;
  for (const upa::obs::AssembledTrace& t : report.traces) {
    if (t.complete && t.requests.size() == 1) {
      by_id.emplace(t.trace_id, &t.requests.front());
    }
  }
  // Phases of direct serve_request roots: the report stitches phases
  // only under dispatch attempts, so index children here.
  const std::vector<upa::obs::CollectedSpan> spans = collector.spans();
  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<const upa::obs::CollectedSpan*>>
      phases_of;
  for (const upa::obs::CollectedSpan& s : spans) {
    if (s.level == "serve_phase") {
      phases_of[{s.process, s.parent}].push_back(&s);
    }
  }

  // Self times of the workload's requests, and of the traced hop pass
  // (which supplies the dispatch layers on front-less topologies).
  using SelfTimes = std::map<std::string, std::vector<double>>;
  SelfTimes workload_self;
  SelfTimes hop_self;
  const auto server_self =
      [](SelfTimes& self, const upa::obs::CollectedSpan* root,
         const std::vector<const upa::obs::CollectedSpan*>& phases) {
        double covered = 0.0;
        for (const upa::obs::CollectedSpan* p : phases) {
          covered += span_us(p);
          self[p->name].push_back(span_us(p));
        }
        self["serve_request"].push_back(span_us(root) - covered);
      };
  std::vector<double> latency;
  std::size_t workload_requests = 0;
  std::size_t matched = 0;
  for (const ClientSpan& c : client_spans) {
    if (c.workload) {
      ++workload_requests;
      latency.push_back(c.latency_us);
    }
    const auto it = by_id.find(c.trace_id);
    if (it == by_id.end()) continue;
    if (c.workload) ++matched;
    SelfTimes& self = c.workload ? workload_self : hop_self;
    const upa::obs::TraceRequest& r = *it->second;
    self["client.call"].push_back(c.latency_us - span_us(r.root));
    if (r.root->level == "dispatch_request") {
      double attempts = 0.0;
      for (const upa::obs::TraceAttempt& a : r.attempts) {
        attempts += span_us(a.span);
        self["dispatch_attempt"].push_back(span_us(a.span) -
                                           span_us(a.server_root));
        if (a.server_root != nullptr) {
          server_self(self, a.server_root, a.server_phases);
        }
      }
      self["dispatch_request"].push_back(span_us(r.root) - attempts);
    } else {
      const auto p = phases_of.find({r.root->process, r.root->id});
      server_self(self, r.root,
                  p == phases_of.end()
                      ? std::vector<const upa::obs::CollectedSpan*>{}
                      : p->second);
    }
  }
  // A layer's self time is its median over the requests that cross it.
  // What the layers account for of the median latency: per layer, the
  // median over all workload requests with 0 where a request does not
  // cross the layer.
  Json layers = Json::object();
  double accounted = 0.0;
  for (const auto& [name, v] : workload_self) {
    layers.set(name, Json(median_of(v)));
    std::vector<double> filled = v;
    filled.resize(std::max(v.size(), matched), 0.0);
    accounted += median_of(filled);
  }
  for (const auto& [name, v] : hop_self) {
    if (workload_self.count(name) == 0) layers.set(name, Json(median_of(v)));
  }
  const double p50 = median_of(latency);
  Json out = Json::object();
  out.set("self_us", std::move(layers));
  out.set("latency_p50_us", Json(p50));
  out.set("unaccounted_us", Json(p50 - accounted));
  out.set("requests", Json(static_cast<double>(workload_requests)));
  out.set("complete_frac",
          Json(workload_requests == 0
                   ? 0.0
                   : static_cast<double>(matched) /
                         static_cast<double>(workload_requests)));
  out.set("dropped_spans",
          Json(static_cast<double>(collector.dropped_spans_total())));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::size_t connections = 4;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--connections") {
      connections = std::stoul(value);
    } else {
      std::cerr << "upa_perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (workload_name.empty() || connections == 0) {
    std::cerr << "usage: upa_perfbench --workload NAME --seed N "
                 "[--connections C]\n";
    return 2;
  }
  try {
    // The daemons run with their default `--cache on`; so does the
    // in-process reference.
    upa::cache::set_enabled(true);
    const upa::serve::Dispatcher dispatcher;
    const Clock::time_point gen_start = Clock::now();
    // Every workload's layer run times the cache tiers on the campaign
    // grid, so every workload knows it.
    std::unique_ptr<Workload> campaign;
    if (workload_name != "campaign_restart") {
      campaign = std::make_unique<Workload>(
          make_workload("campaign_restart", seed, connections, dispatcher));
    }
    const Workload w = make_workload(workload_name, seed, connections,
                                     dispatcher);
    const Workload& cache_w = campaign != nullptr ? *campaign : w;
    LineTable hop_table;
    hop_table.add(request_line(7, "ping", ""));
    hop_table.compute_references(dispatcher, 0);
    Json ready = Json::object();
    ready.set("ready", Json(true));
    ready.set("build_type", Json(UPA_PERFBENCH_BUILD_TYPE));
    ready.set("distinct_lines", Json(w.table.size()));
    ready.set("generate_s",
              Json(std::chrono::duration<double>(Clock::now() - gen_start)
                       .count()));
    ready.set("implied", w.implied);
    std::cout << ready.dump() << std::endl;

    std::vector<Tally> recorded;  // one per recorded load or round
    upa::obs::TraceCollector collector;
    Subscriptions subscriptions(collector);
    std::vector<ClientSpan> client_spans;
    std::string command_line;
    while (std::getline(std::cin, command_line)) {
      std::istringstream in(command_line);
      std::string command;
      in >> command;
      Json out = Json::object();
      if (command == "load" || command == "round") {
        std::string host;
        unsigned port = 0;
        double seconds = 0.0;
        int record = 1;
        in >> host >> port;
        if (command == "load") in >> seconds;
        in >> record;
        const Tally t = run_closed_loop(
            w, host, static_cast<std::uint16_t>(port), seconds,
            command == "round", record != 0, TraceOptions{}, 0, nullptr);
        if (record != 0) recorded.push_back(t);
        out = tally_json(t);
      } else if (command == "steal") {
        std::uint64_t steal = 0;
        std::uint64_t total = 0;
        in >> steal >> total;
        if (recorded.empty()) {
          out.set("error", Json("steal before any recorded segment"));
        } else {
          recorded.back().steal_ticks += steal;
          recorded.back().cpu_ticks += total;
        }
      } else if (command == "prepopulate") {
        std::string host;
        unsigned port = 0;
        in >> host >> port;
        Tally t;
        const Session s(cache_w.prepopulated.begin(),
                        cache_w.prepopulated.end());
        run_session(host, static_cast<std::uint16_t>(port), cache_w.table, s,
                    false, TraceOptions{}, t, nullptr);
        out = tally_json(t);
      } else if (command == "summary") {
        double window_s = 0.0;
        in >> window_s;
        out = summarize(recorded, window_s);
        recorded.clear();
      } else if (command == "layers") {
        std::string dir;
        in >> dir;
        out = layers(w, cache_w, dispatcher, dir);
      } else if (command == "hop") {
        std::string dhost;
        std::string fhost;
        unsigned dport = 0;
        unsigned fport = 0;
        std::size_t n = 0;
        in >> dhost >> dport >> fhost >> fport >> n;
        out = hop(dispatcher, dhost, static_cast<std::uint16_t>(dport), fhost,
                  static_cast<std::uint16_t>(fport), n);
      } else if (command == "subscribe") {
        std::string host;
        unsigned port = 0;
        in >> host >> port;
        subscriptions.add(host, static_cast<std::uint16_t>(port));
        out.set("subscribed", Json(true));
      } else if (command == "traced") {
        std::string host;
        unsigned port = 0;
        double seconds = 0.0;
        std::uint64_t max_requests = 0;
        std::string kind;
        int once = 0;
        in >> host >> port >> seconds >> max_requests >> kind >> once;
        TraceOptions trace;
        trace.on = true;
        trace.workload = kind == "workload";
        if (trace.workload) {
          out = tally_json(run_closed_loop(
              w, host, static_cast<std::uint16_t>(port), seconds, once != 0,
              false, trace, max_requests, &client_spans));
          drain(collector);
        } else {
          // The traced hop pass: max_requests pings on one connection.
          Tally t;
          const Clock::time_point start = Clock::now();
          run_session(host, static_cast<std::uint16_t>(port), hop_table,
                      Session(max_requests, 0), false, trace, t,
                      &client_spans);
          t.elapsed_s =
              std::chrono::duration<double>(Clock::now() - start).count();
          out = tally_json(t);
          drain(collector);
        }
      } else if (command == "trace_report") {
        subscriptions.stop();
        out = trace_report(collector, client_spans);
      } else if (command == "quit") {
        break;
      } else {
        out.set("error", Json("unknown command '" + command + "'"));
      }
      std::cout << out.dump() << std::endl;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "upa_perfbench: " << e.what() << "\n";
    return 1;
  }
}
