#include "upa/control/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/server.hpp"

namespace upa::control {

namespace {

/// Raw phase table before the FaultPlan overlay and request sizing.
std::vector<ControlPhase> base_phases(const ControlScenarioConfig& c) {
  UPA_REQUIRE(c.scenario == "full" || c.scenario == "flash",
              "scenario must be 'full' or 'flash'");
  UPA_REQUIRE(std::isfinite(c.nu) && c.nu > 0.0,
              "service rate must be positive");
  UPA_REQUIRE(c.duration_scale > 0.0, "duration scale must be positive");
  const double s = c.duration_scale;
  std::vector<ControlPhase> phases;
  if (c.scenario == "full") {
    phases.push_back({"night", 6.0, c.nu, 6.0 * s, 0, false});
    phases.push_back({"morning", 12.0, c.nu, 6.0 * s, 0, false});
    phases.push_back({"flash", 36.0, c.nu, 10.0 * s, 0, false});
    phases.push_back({"outage", 12.0, c.nu, 10.0 * s, 0, false});
    phases.push_back({"recovery", 8.0, c.nu, 6.0 * s, 0, false});
  } else {
    phases.push_back({"morning", 12.0, c.nu, 4.0 * s, 0, false});
    phases.push_back({"flash", 36.0, c.nu, 8.0 * s, 0, false});
  }
  return phases;
}

}  // namespace

inject::FaultPlan control_fault_plan(const ControlScenarioConfig& config) {
  inject::FaultPlan plan;
  double t = 0.0;
  for (const ControlPhase& phase : base_phases(config)) {
    if (phase.name == "outage") {
      // Plan hours map 1:3600 onto experiment seconds, like the farm
      // experiment's kill schedule.
      plan.add(inject::FaultTarget::kWebFarm, t / 3600.0,
               phase.duration_seconds / 3600.0);
    }
    t += phase.duration_seconds;
  }
  if (!plan.empty()) plan.validate(t / 3600.0);
  return plan;
}

std::vector<ControlPhase> control_phases(
    const ControlScenarioConfig& config) {
  std::vector<ControlPhase> phases = base_phases(config);
  const inject::FaultPlan plan = control_fault_plan(config);
  double t = 0.0;
  for (ControlPhase& phase : phases) {
    const double midpoint_hours =
        (t + phase.duration_seconds / 2.0) / 3600.0;
    if (plan.forced_down(inject::FaultTarget::kWebFarm, midpoint_hours)) {
      // Brown-out, not a kill: the backend slows to a third of its
      // healthy rate, so the same lambda now overloads the old plan.
      phase.nu = config.nu / 3.0;
      phase.faulted = true;
    }
    phase.requests = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(phase.lambda * phase.duration_seconds)));
    t += phase.duration_seconds;
  }
  return phases;
}

namespace {

ControlRunSummary run_pass(const ControlScenarioConfig& config,
                           const std::vector<ControlPhase>& phases,
                           bool controlled,
                           ControllerStats* controller_stats) {
  serve::ServerConfig sc;
  sc.port = 0;
  sc.workers = config.initial_workers;
  sc.capacity = config.initial_capacity;
  serve::Server server(std::move(sc));
  server.start();

  std::optional<Controller> controller;
  if (controlled) {
    ControllerOptions co;
    co.host = "127.0.0.1";
    co.port = server.port();
    co.tick_interval_seconds = config.tick_interval_seconds;
    co.policy.target_loss = config.target_loss;
    co.policy.max_workers = config.max_workers;
    co.policy.max_capacity = config.max_capacity;
    co.obs = config.obs;
    controller.emplace(std::move(co));
    controller->start();
  }

  ControlRunSummary summary;
  std::size_t index = 0;
  for (const ControlPhase& phase : phases) {
    serve::LossConfig lc;
    lc.port = server.port();
    lc.lambda = phase.lambda;
    lc.nu = phase.nu;
    lc.requests = phase.requests;
    // Distinct substreams per (pass, phase) so the two passes replay
    // the same arrival processes while phases stay independent.
    lc.seed = config.seed * 1000 + index * 2 + (controlled ? 1 : 0);
    const serve::LossResult r = serve::run_loss_workload(lc);

    ControlPhaseOutcome out;
    out.name = phase.name;
    out.lambda = phase.lambda;
    out.nu = phase.nu;
    out.faulted = phase.faulted;
    out.requests = r.sent;
    out.rejected = r.rejected;
    out.transport_errors = r.transport_errors;
    out.measured_loss = r.measured_loss;
    out.gate = config.target_loss +
               4.0 * std::sqrt(config.target_loss *
                               (1.0 - config.target_loss) /
                               static_cast<double>(std::max<std::size_t>(
                                   r.sent, 1))) +
               0.02;
    out.within_gate = r.measured_loss <= out.gate;
    const obs::MetricsRegistry stats = server.stats();
    out.workers_after =
        static_cast<std::size_t>(stats.gauges().at("serve.workers").value());
    out.capacity_after =
        static_cast<std::size_t>(stats.gauges().at("serve.capacity").value());

    summary.transport_errors += r.transport_errors;
    summary.all_within = summary.all_within && out.within_gate;
    summary.any_violation = summary.any_violation || !out.within_gate;
    summary.phases.push_back(std::move(out));
    ++index;
  }

  if (controller) {
    if (controller_stats != nullptr) *controller_stats = controller->stats();
    controller->stop();
  }
  server.stop();
  return summary;
}

}  // namespace

ControlExperimentResult run_control_experiment(
    const ControlScenarioConfig& config) {
  UPA_REQUIRE(config.target_loss > 0.0 && config.target_loss < 1.0,
              "target loss must be in (0, 1)");
  UPA_REQUIRE(config.initial_workers >= 1 &&
                  config.initial_capacity >= config.initial_workers,
              "initial config must satisfy K >= i >= 1");
  const std::vector<ControlPhase> phases = control_phases(config);

  ControlExperimentResult result;
  result.target_loss = config.target_loss;
  result.controlled =
      run_pass(config, phases, /*controlled=*/true, &result.controller);
  result.baseline =
      run_pass(config, phases, /*controlled=*/false, nullptr);

  result.control_ok = result.controlled.all_within &&
                      result.controlled.transport_errors == 0 &&
                      result.controller.applies >= 1;
  result.baseline_violates = result.baseline.any_violation;
  return result;
}

}  // namespace upa::control
