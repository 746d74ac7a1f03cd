// Tests for the paper's web-farm composite models (Figures 9/10, eqs.
// 4-9): closed-form distributions vs explicit CTMCs, the published
// A(WS) anchor value, and structural properties of the two coverage
// variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "upa/common/error.hpp"
#include "upa/core/web_farm.hpp"

namespace uc = upa::core;
using upa::common::ModelError;

namespace {

uc::WebFarmParams paper_farm(std::size_t servers, double lambda) {
  uc::WebFarmParams farm;
  farm.servers = servers;
  farm.failure_rate = lambda;
  farm.repair_rate = 1.0;
  farm.coverage = 0.98;
  farm.reconfiguration_rate = 12.0;
  return farm;
}

uc::WebQueueParams paper_queue(double alpha) {
  uc::WebQueueParams queue;
  queue.arrival_rate = alpha;
  queue.service_rate = 100.0;
  queue.buffer = 10;
  return queue;
}

}  // namespace

TEST(PerfectCoverage, DistributionMatchesExplicitChain) {
  const auto farm = paper_farm(4, 1e-3);
  const auto closed = uc::perfect_coverage_distribution(farm);
  const auto numeric = uc::perfect_coverage_chain(farm).steady_state();
  ASSERT_EQ(closed.size(), numeric.size());
  for (std::size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(closed[i], numeric[i], 1e-12) << "state " << i;
  }
}

TEST(PerfectCoverage, MassConcentratesOnAllUp) {
  const auto pi = uc::perfect_coverage_distribution(paper_farm(4, 1e-4));
  EXPECT_GT(pi[4], 0.999);
  double sum = 0.0;
  for (double p : pi) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ImperfectCoverage, DistributionMatchesExplicitChain) {
  const auto farm = paper_farm(4, 1e-3);
  const auto closed = uc::imperfect_coverage_distribution(farm);
  const auto chain = uc::imperfect_coverage_chain(farm);
  const auto numeric = chain.chain.steady_state();
  for (std::size_t i = 0; i <= farm.servers; ++i) {
    EXPECT_NEAR(closed.operational[i], numeric[chain.operational_state(i)],
                1e-12)
        << "operational state " << i;
  }
  for (std::size_t i = 1; i <= farm.servers; ++i) {
    EXPECT_NEAR(closed.manual[i], numeric[chain.manual_state(i)], 1e-12)
        << "manual state y" << i;
  }
}

TEST(ImperfectCoverage, PaperAnchorValue) {
  // The paper's Table 7: A(WS) = 0.999995587 for N_W=4, c=0.98,
  // lambda=1e-4/h, mu=1/h, beta=12/h, alpha=nu=100/s, K=10.
  const double a = uc::web_service_availability_imperfect(
      paper_farm(4, 1e-4), paper_queue(100.0));
  EXPECT_NEAR(a, 0.999995587, 5e-10);
}

TEST(ImperfectCoverage, ClosedFormMatchesCompositeCtmc) {
  for (std::size_t servers : {2u, 4u, 7u}) {
    const auto farm = paper_farm(servers, 1e-3);
    const auto queue = paper_queue(150.0);
    const double closed =
        uc::web_service_availability_imperfect(farm, queue);
    const double composite =
        uc::composite_imperfect(farm, queue).availability();
    EXPECT_NEAR(closed, composite, 1e-12) << "servers = " << servers;
  }
}

TEST(PerfectCoverage, ClosedFormMatchesCompositeCtmc) {
  for (std::size_t servers : {1u, 3u, 6u}) {
    const auto farm = paper_farm(servers, 1e-2);
    const auto queue = paper_queue(50.0);
    const double closed = uc::web_service_availability_perfect(farm, queue);
    const double composite =
        uc::composite_perfect(farm, queue).availability();
    EXPECT_NEAR(closed, composite, 1e-12) << "servers = " << servers;
  }
}

TEST(Coverage, PerfectBeatsImperfect) {
  // Imperfect coverage only adds down states; availability must drop.
  for (std::size_t servers : {2u, 4u, 8u}) {
    const auto farm = paper_farm(servers, 1e-3);
    const auto queue = paper_queue(100.0);
    EXPECT_GT(uc::web_service_availability_perfect(farm, queue),
              uc::web_service_availability_imperfect(farm, queue));
  }
}

TEST(Coverage, FullCoverageLimitsCoincide) {
  auto farm = paper_farm(3, 1e-3);
  farm.coverage = 1.0;
  const auto queue = paper_queue(100.0);
  EXPECT_NEAR(uc::web_service_availability_imperfect(farm, queue),
              uc::web_service_availability_perfect(farm, queue), 1e-15);
}

TEST(Coverage, ImperfectNonMonotoneInServerCount) {
  // The Figure 12 effect: with imperfect coverage, unavailability stops
  // improving and reverses once uncovered failures dominate.
  const auto queue = paper_queue(100.0);
  std::vector<double> ua;
  for (std::size_t n = 1; n <= 10; ++n) {
    ua.push_back(1.0 - uc::web_service_availability_imperfect(
                           paper_farm(n, 1e-4), queue));
  }
  // Decreases initially...
  EXPECT_LT(ua[3], ua[0]);
  // ...but the tail rises above the minimum (reversal).
  const double min_ua = *std::min_element(ua.begin(), ua.end());
  EXPECT_GT(ua[9], min_ua);
}

TEST(Coverage, PerfectMonotoneInServerCount) {
  const auto queue = paper_queue(100.0);
  double previous = 1.0;
  for (std::size_t n = 1; n <= 10; ++n) {
    const double ua = 1.0 - uc::web_service_availability_perfect(
                                paper_farm(n, 1e-4), queue);
    EXPECT_LE(ua, previous * (1 + 1e-12)) << "n = " << n;
    previous = ua;
  }
}

TEST(WebFarm, SingleServerReducesToTwoStateTimesLoss) {
  // N_W = 1, perfect coverage: A = (1 - p_K) * mu/(mu+lambda) (eq. 2).
  const auto farm = paper_farm(1, 1e-2);
  const auto queue = paper_queue(100.0);
  const double expected =
      (1.0 - 1.0 / 11.0) * (1.0 / (1.0 + 1e-2));
  EXPECT_NEAR(uc::web_service_availability_perfect(farm, queue), expected,
              1e-12);
}

TEST(WebFarm, ManualStateMassScalesWithUncoverage) {
  auto farm = paper_farm(4, 1e-3);
  farm.coverage = 0.5;
  const auto half = uc::imperfect_coverage_distribution(farm);
  farm.coverage = 0.98;
  const auto high = uc::imperfect_coverage_distribution(farm);
  double mass_half = 0.0;
  double mass_high = 0.0;
  for (std::size_t i = 1; i <= 4; ++i) {
    mass_half += half.manual[i];
    mass_high += high.manual[i];
  }
  EXPECT_GT(mass_half, mass_high);
}

TEST(WebFarm, FullCoverageIsBitForBitThePerfectModel) {
  // c = 1 delegates to the perfect-coverage closed form instead of
  // running the imperfect pipeline with zero uncovered mass, so the two
  // availabilities are EXACTLY equal -- no 1e-15 drift from a different
  // normalization order.
  auto farm = paper_farm(3, 1e-3);
  farm.coverage = 1.0;
  const auto queue = paper_queue(100.0);
  const double perfect = uc::web_service_availability_perfect(farm, queue);
  const double imperfect =
      uc::web_service_availability_imperfect(farm, queue);
  EXPECT_EQ(perfect, imperfect);  // bitwise, not NEAR

  const auto dist = uc::imperfect_coverage_distribution(farm);
  const auto pi = uc::perfect_coverage_distribution(farm);
  ASSERT_EQ(dist.operational.size(), pi.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_EQ(dist.operational[i], pi[i]) << "state " << i;
    if (i < dist.manual.size()) {
      EXPECT_EQ(dist.manual[i], 0.0);
    }
  }
}

TEST(WebFarm, ZeroCoverageSendsEveryFailureThroughManualStates) {
  auto farm = paper_farm(3, 1e-2);
  farm.coverage = 0.0;
  const auto dist = uc::imperfect_coverage_distribution(farm);
  // Every failure is uncovered: corrected states below N_W carry no
  // direct failure inflow, so the manual mass dominates the corrected
  // mass at each degraded level.
  for (std::size_t i = 1; i < farm.servers; ++i) {
    EXPECT_GT(dist.manual[i], 0.0) << "y_" << i;
  }
  const double perfect_a =
      uc::web_service_availability_perfect(farm, paper_queue(100.0));
  const double imperfect_a =
      uc::web_service_availability_imperfect(farm, paper_queue(100.0));
  EXPECT_LT(imperfect_a, perfect_a);
}

TEST(WebFarm, SingleServerImperfectLosesItsWholeManualWindow) {
  // N_W = 1: an uncovered failure parks the farm in y_1 where every
  // request is lost; availability sits strictly below the perfect
  // two-state reduction and degrades as coverage drops.
  const auto queue = paper_queue(100.0);
  auto farm = paper_farm(1, 1e-2);
  const double perfect = uc::web_service_availability_perfect(farm, queue);
  double previous = perfect;
  for (const double c : {0.9, 0.5, 0.1}) {
    farm.coverage = c;
    const double a = uc::web_service_availability_imperfect(farm, queue);
    EXPECT_LT(a, previous) << "coverage " << c;
    previous = a;
  }
}

TEST(WebFarm, RejectsDegenerateReconfigurationRates) {
  const auto queue = paper_queue(100.0);
  for (const double beta :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    auto farm = paper_farm(3, 1e-3);
    farm.reconfiguration_rate = beta;
    EXPECT_THROW((void)uc::imperfect_coverage_distribution(farm),
                 ModelError)
        << "beta " << beta;
    EXPECT_THROW((void)uc::web_service_availability_imperfect(farm, queue),
                 ModelError)
        << "beta " << beta;
  }
}

TEST(WebFarm, RejectsInvalidConfigurations) {
  uc::WebFarmParams farm;
  farm.servers = 0;
  EXPECT_THROW((void)uc::perfect_coverage_distribution(farm), ModelError);
  auto queue = paper_queue(100.0);
  queue.buffer = 2;  // fewer buffer slots than the 4 servers
  EXPECT_THROW((void)uc::web_service_availability_perfect(paper_farm(4, 1e-3),
                                                          queue),
               ModelError);
  auto full = paper_farm(2, 1e-3);
  full.coverage = 1.0;
  EXPECT_THROW((void)uc::composite_imperfect(full, paper_queue(100.0)),
               ModelError);
}
