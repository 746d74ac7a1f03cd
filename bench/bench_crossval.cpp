// Cross-engine validation harness: prints the same quantities computed by
// every independent evaluation path in the library (closed form, explicit
// CTMC, GSPN reachability, Monte-Carlo simulation) so drift between
// engines is immediately visible.

#include <algorithm>
#include <cstdlib>

#include "bench_util.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/sim/availability_sim.hpp"
#include "upa/sim/queue_sim.hpp"
#include "upa/spn/net.hpp"
#include "upa/spn/reachability.hpp"
#include "upa/spn/to_ctmc.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace {

namespace uc = upa::core;
namespace ut = upa::ta;
namespace cm = upa::common;
namespace usim = upa::sim;
namespace uspn = upa::spn;

uspn::PetriNet imperfect_farm_net(std::size_t servers, double lambda,
                                  double mu, double coverage, double beta) {
  uspn::PetriNet net;
  const auto up = net.add_place("up", static_cast<int>(servers));
  const auto down = net.add_place("down", 0);
  const auto choice = net.add_place("choice", 0);
  const auto manual = net.add_place("manual", 0);
  const auto fail = net.add_timed_transition(
      "fail", lambda, uspn::ServerSemantics::kInfiniteServer);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, choice);
  net.add_inhibitor_arc(fail, manual);
  const auto covered = net.add_immediate_transition("covered", coverage);
  net.add_input_arc(covered, choice);
  net.add_output_arc(covered, down);
  const auto uncovered =
      net.add_immediate_transition("uncovered", 1.0 - coverage);
  net.add_input_arc(uncovered, choice);
  net.add_output_arc(uncovered, manual);
  const auto reconfig = net.add_timed_transition("reconfig", beta);
  net.add_input_arc(reconfig, manual);
  net.add_output_arc(reconfig, down);
  const auto repair = net.add_timed_transition("repair", mu);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);
  net.add_inhibitor_arc(repair, manual);
  return net;
}

void print_crossval() {
  upa::bench::print_header(
      "Cross-engine validation",
      "One quantity, four independent engines. Disagreement = bug.");

  // Web-service availability (N_W=4, lambda=1e-3 for visible dynamics).
  uc::WebFarmParams farm{4, 1e-3, 1.0, 0.98, 12.0};
  uc::WebQueueParams queue{100.0, 100.0, 10};
  const double closed = uc::web_service_availability_imperfect(farm, queue);
  const auto composite = uc::composite_imperfect(farm, queue);
  const double ctmc = composite.availability();

  // GSPN route: weight state probabilities by 1 - p_K(up tokens).
  const auto net = imperfect_farm_net(4, 1e-3, 1.0, 0.98, 12.0);
  const auto tc = uspn::to_ctmc(net, uspn::explore(net));
  const auto pi = tc.chain.steady_state();
  double gspn = 0.0;
  for (std::size_t s = 0; s < tc.markings.size(); ++s) {
    const int up = tc.markings[s][0];
    const int manual = tc.markings[s][3];
    if (up >= 1 && manual == 0) {
      gspn += pi[s] * (1.0 - upa::queueing::mmck_loss_probability(
                                 100.0, 100.0,
                                 static_cast<std::size_t>(up), 10));
    }
  }

  usim::MonteCarloOptions mc;
  mc.horizon = 200000.0;
  mc.replications = 10;
  mc.seed = 99;
  const auto sim = usim::simulate_ctmc_reward(
      composite.chain(), composite.service_probability(), 4, mc);

  cm::Table t({"engine", "A(Web service)", "abs diff vs closed form"});
  t.set_align(0, cm::Align::kLeft);
  t.set_title("Web-service availability, imperfect coverage");
  t.add_row({"closed form (corrected eq. 9)", cm::fmt(closed, 12), "-"});
  t.add_row({"explicit CTMC + reward", cm::fmt(ctmc, 12),
             cm::fmt_sci(std::abs(ctmc - closed), 2)});
  t.add_row({"GSPN -> reachability -> CTMC", cm::fmt(gspn, 12),
             cm::fmt_sci(std::abs(gspn - closed), 2)});
  t.add_row({"Monte-Carlo trajectory (CI half-width " +
                 cm::fmt_sci(sim.interval.half_width, 1) + ")",
             cm::fmt(sim.interval.mean, 8),
             cm::fmt_sci(std::abs(sim.interval.mean - closed), 2)});
  std::cout << t << "\n";

  // User-level availability: eq. 10 vs hierarchy. Both are exact, so any
  // difference beyond rounding is a bug and fails the harness.
  const auto p = upa::bench::paper_params(3);
  cm::Table u({"class", "paper eq. (10) closed form",
               "4-level hierarchy, path expansion", "abs diff"});
  u.set_align(0, cm::Align::kLeft);
  u.set_title("User-perceived availability");
  double worst_user_diff = 0.0;
  for (const auto uclass : {ut::UserClass::kA, ut::UserClass::kB}) {
    const double eq10 = ut::user_availability_eq10(uclass, p);
    const double hier = ut::user_availability_hierarchical(uclass, p);
    const double diff = std::abs(hier - eq10);
    worst_user_diff = std::max(worst_user_diff, diff);
    u.add_row({ut::user_class_name(uclass), cm::fmt(eq10, 12),
               cm::fmt(hier, 12), cm::fmt_sci(diff, 2)});
  }
  std::cout << u << "\n";
  if (!(worst_user_diff <= 1e-12)) {
    std::cerr << "bench_crossval: hierarchical and eq. (10) user "
                 "availability differ by "
              << worst_user_diff << " > 1e-12\n";
    std::exit(1);
  }

  // Queue loss: closed form vs DES.
  // Two servers keep the loss probability (~6.5e-4) observable within a
  // few hundred thousand simulated arrivals.
  usim::QueueSpec qs;
  qs.interarrival = usim::Exponential{100.0};
  qs.service = usim::Exponential{100.0};
  qs.servers = 2;
  qs.capacity = 10;
  usim::QueueSimOptions qo;
  qo.arrivals_per_replication = 150000;
  qo.replications = 6;
  qo.seed = 5;
  const auto qr = usim::simulate_queue(qs, qo);
  const double pk =
      upa::queueing::mmck_loss_probability(100.0, 100.0, 2, 10);
  cm::Table q({"engine", "p_K(2), rho=1, K=10", "abs diff"});
  q.set_align(0, cm::Align::kLeft);
  q.set_title("M/M/2/10 loss probability");
  q.add_row({"closed form (paper eq. 3)", cm::fmt_sci(pk, 4), "-"});
  q.add_row({"DES (CI half-width " +
                 cm::fmt_sci(qr.loss_probability.half_width, 1) + ")",
             cm::fmt_sci(qr.loss_probability.mean, 4),
             cm::fmt_sci(std::abs(qr.loss_probability.mean - pk), 2)});
  std::cout << q << "\n";
}

void bm_gspn_pipeline(benchmark::State& state) {
  for (auto _ : state) {
    const auto net = imperfect_farm_net(4, 1e-3, 1.0, 0.98, 12.0);
    const auto tc = uspn::to_ctmc(net, uspn::explore(net));
    benchmark::DoNotOptimize(tc.chain.steady_state());
  }
}
BENCHMARK(bm_gspn_pipeline);

void bm_queue_simulation(benchmark::State& state) {
  usim::QueueSpec qs;
  qs.interarrival = usim::Exponential{100.0};
  qs.service = usim::Exponential{100.0};
  qs.servers = 4;
  qs.capacity = 10;
  usim::QueueSimOptions qo;
  qo.arrivals_per_replication = 20000;
  qo.warmup_arrivals = 1000;
  qo.replications = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(usim::simulate_queue(qs, qo));
  }
}
BENCHMARK(bm_queue_simulation);

}  // namespace

UPA_BENCH_MAIN(print_crossval)
