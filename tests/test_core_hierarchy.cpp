// Tests for the four-level hierarchical framework: service catalog,
// function models over execution paths, and user-level joint availability
// with shared-service dependence.

#include <gtest/gtest.h>

#include "upa/common/error.hpp"
#include "upa/core/hierarchy.hpp"
#include "upa/core/performability.hpp"
#include "upa/sim/rng.hpp"
#include "upa/ta/model_builder.hpp"

namespace uc = upa::core;
namespace up = upa::profile;
using upa::common::ModelError;

TEST(ServiceCatalog, AddLookupUpdate) {
  uc::ServiceCatalog catalog;
  const auto web = catalog.add("web", 0.99);
  const auto db = catalog.add("db", 0.95);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.name(web), "web");
  EXPECT_DOUBLE_EQ(catalog.availability(db), 0.95);
  EXPECT_EQ(catalog.id_of("db"), db);
  catalog.set_availability(db, 0.97);
  EXPECT_DOUBLE_EQ(catalog.availability(db), 0.97);
  EXPECT_THROW((void)catalog.id_of("nope"), ModelError);
  EXPECT_THROW((void)catalog.add("web", 0.5), ModelError);
}

TEST(FunctionModel, AllOfIsProductOfAvailabilities) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.8);
  const auto f = uc::FunctionModel::all_of("F", {a, b});
  EXPECT_NEAR(f.availability(catalog), 0.72, 1e-12);
}

TEST(FunctionModel, MixtureOfPathsMatchesBrowseFormula) {
  // Browse-like: q1 needs {ws}, q2 needs {ws, as}, q3 needs {ws, as, ds}.
  uc::ServiceCatalog catalog;
  const auto ws = catalog.add("ws", 0.99);
  const auto as = catalog.add("as", 0.95);
  const auto ds = catalog.add("ds", 0.90);
  const uc::FunctionModel browse(
      "Browse", {uc::ExecutionPath{0.2, {ws}},
                 uc::ExecutionPath{0.32, {ws, as}},
                 uc::ExecutionPath{0.48, {ws, as, ds}}});
  const double expected =
      0.99 * (0.2 + 0.95 * (0.32 + 0.48 * 0.90));
  EXPECT_NEAR(browse.availability(catalog), expected, 1e-12);
}

TEST(FunctionModel, PathProbabilitiesMustSumToOne) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  EXPECT_THROW(uc::FunctionModel("bad", {uc::ExecutionPath{0.5, {a}}}),
               ModelError);
}

TEST(FunctionModel, SuccessGivenStates) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.9);
  const uc::FunctionModel f(
      "F", {uc::ExecutionPath{0.6, {a}}, uc::ExecutionPath{0.4, {a, b}}});
  EXPECT_DOUBLE_EQ(f.success_given({true, true}), 1.0);
  EXPECT_DOUBLE_EQ(f.success_given({true, false}), 0.6);
  EXPECT_DOUBLE_EQ(f.success_given({false, true}), 0.0);
  // b is out of range even though a is down, which already fails F.
  EXPECT_THROW((void)f.success_given({false}), ModelError);
}

TEST(FunctionModel, InvolvedServicesDeduplicated) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.9);
  const uc::FunctionModel f(
      "F", {uc::ExecutionPath{0.5, {a, b}}, uc::ExecutionPath{0.5, {b}}});
  EXPECT_EQ(f.involved_services().size(), 2u);
}

namespace {

/// Two functions sharing service "shared"; scenario invokes both.
uc::UserLevelModel shared_service_model(double a_shared, double a_own1,
                                        double a_own2) {
  uc::ServiceCatalog catalog;
  const auto shared = catalog.add("shared", a_shared);
  const auto own1 = catalog.add("own1", a_own1);
  const auto own2 = catalog.add("own2", a_own2);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel::all_of("F", {shared, own1}));
  functions.push_back(uc::FunctionModel::all_of("G", {shared, own2}));
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("St-F-Ex", {0}, 0.3);
  scenarios.add("St-G-Ex", {1}, 0.3);
  scenarios.add("St-F-G-Ex", {0, 1}, 0.4);
  return uc::UserLevelModel(std::move(catalog), std::move(functions),
                            std::move(scenarios));
}

}  // namespace

TEST(UserLevel, SharedServiceCountedOnce) {
  const auto model = shared_service_model(0.9, 0.8, 0.7);
  // Joint(F, G) = a_shared * a_own1 * a_own2, NOT a_shared^2 * ...
  EXPECT_NEAR(model.joint_success({0, 1}), 0.9 * 0.8 * 0.7, 1e-12);
  EXPECT_NEAR(model.joint_success({0}), 0.9 * 0.8, 1e-12);
}

TEST(UserLevel, UserAvailabilityIsScenarioWeighted) {
  const auto model = shared_service_model(0.9, 0.8, 0.7);
  const double expected = 0.3 * (0.9 * 0.8) + 0.3 * (0.9 * 0.7) +
                          0.4 * (0.9 * 0.8 * 0.7);
  EXPECT_NEAR(model.user_availability(), expected, 1e-12);
}

TEST(UserLevel, UnavailabilityContributionsSumToComplement) {
  const auto model = shared_service_model(0.95, 0.9, 0.85);
  const auto contributions = model.unavailability_contributions();
  double total = 0.0;
  for (double c : contributions) total += c;
  EXPECT_NEAR(total, 1.0 - model.user_availability(), 1e-12);
}

TEST(UserLevel, FunctionNameMismatchRejected) {
  uc::ServiceCatalog catalog;
  const auto s = catalog.add("s", 0.9);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel::all_of("WrongName", {s}));
  up::ScenarioSet scenarios({"F"});
  scenarios.add("St-F-Ex", {0}, 1.0);
  EXPECT_THROW(uc::UserLevelModel(std::move(catalog), std::move(functions),
                                  std::move(scenarios)),
               ModelError);
}

TEST(UserLevel, MixturePathsInteractExactly) {
  // F is a mixture over {s1} and {s1, s2}; G requires {s2}. In a joint
  // scenario the s2-dependence of F and G is correlated through s2.
  uc::ServiceCatalog catalog;
  const auto s1 = catalog.add("s1", 0.9);
  const auto s2 = catalog.add("s2", 0.5);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel(
      "F", {uc::ExecutionPath{0.5, {s1}}, uc::ExecutionPath{0.5, {s1, s2}}}));
  functions.push_back(uc::FunctionModel::all_of("G", {s2}));
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("St-F-G-Ex", {0, 1}, 1.0);
  const uc::UserLevelModel model(std::move(catalog), std::move(functions),
                                 std::move(scenarios));
  // Exact: E[F G] = P(s1 up) * P(s2 up) * 1 (given s2 up, F succeeds w.p.
  // 1 since both paths work) = 0.9 * 0.5. Naive independent-product would
  // give A(F) * A(G) = 0.9*0.75 * 0.5 = 0.3375.
  EXPECT_NEAR(model.user_availability(), 0.45, 1e-12);
  EXPECT_NEAR(model.function(0).availability(model.catalog()), 0.675,
              1e-12);
}

TEST(UserLevel, OutOfCatalogServiceIdRejectedAtConstruction) {
  uc::ServiceCatalog catalog;
  const auto s = catalog.add("s", 0.9);
  std::vector<uc::FunctionModel> functions;
  // The bad id sits on a zero-probability path: it is still a wiring bug.
  functions.push_back(uc::FunctionModel(
      "F", {uc::ExecutionPath{1.0, {s}}, uc::ExecutionPath{0.0, {s, 7}}}));
  up::ScenarioSet scenarios({"F"});
  scenarios.add("St-F-Ex", {0}, 1.0);
  EXPECT_THROW(uc::UserLevelModel(std::move(catalog), std::move(functions),
                                  std::move(scenarios)),
               ModelError);
}

namespace {

/// Test oracle: P(every function in `functions` succeeds) by enumerating
/// all 2^m up/down states of the services they involve.
double enumerate_joint(const uc::UserLevelModel& model,
                       const std::set<std::size_t>& functions) {
  std::set<uc::ServiceId> union_of;
  for (std::size_t f : functions) {
    const auto& involved = model.function(f).involved_services();
    union_of.insert(involved.begin(), involved.end());
  }
  const std::vector<uc::ServiceId> involved(union_of.begin(), union_of.end());
  const std::size_t m = involved.size();
  double total = 0.0;
  std::vector<bool> state(model.catalog().size(), false);
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const bool up = (mask >> i) & 1;
      const double a = model.catalog().availability(involved[i]);
      weight *= up ? a : 1.0 - a;
      state[involved[i]] = up;
    }
    double joint = 1.0;
    for (std::size_t f : functions) {
      joint *= model.function(f).success_given(state);
    }
    total += weight * joint;
  }
  return total;
}

/// A seeded random model: few services, so functions share them; up to
/// four paths per function, each path extending or replacing the last
/// (overlapping paths), some paths of probability 0; availabilities
/// include exactly 0 and 1.
uc::UserLevelModel random_model(upa::sim::Xoshiro256& rng) {
  uc::ServiceCatalog catalog;
  const std::size_t services = 2 + rng() % 9;
  for (std::size_t s = 0; s < services; ++s) {
    const std::size_t kind = rng() % 5;
    const double a = kind == 0   ? 0.0
                     : kind == 1 ? 1.0
                                 : 0.5 + 0.5 * rng.uniform01();
    catalog.add("s" + std::to_string(s), a);
  }
  const std::size_t function_count = 1 + rng() % 5;
  std::vector<std::string> names;
  std::vector<uc::FunctionModel> functions;
  for (std::size_t f = 0; f < function_count; ++f) {
    names.push_back("F" + std::to_string(f));
    std::vector<uc::ExecutionPath> paths(1 + rng() % 4);
    double weight_sum = 0.0;
    std::vector<uc::ServiceId> needs;
    for (uc::ExecutionPath& path : paths) {
      if (rng() % 3 == 0) needs.clear();
      for (std::size_t k = 1 + rng() % 3; k > 0; --k) {
        needs.push_back(rng() % services);
      }
      path.services = needs;
      path.probability = rng() % 4 == 0 ? 0.0 : rng.uniform01();
      weight_sum += path.probability;
    }
    if (weight_sum == 0.0) {
      paths.back().probability = weight_sum = 1.0;
    }
    for (uc::ExecutionPath& path : paths) path.probability /= weight_sum;
    functions.emplace_back(names.back(), std::move(paths));
  }
  up::ScenarioSet scenarios(names);
  const std::size_t subsets = (std::size_t{1} << function_count) - 1;
  for (std::size_t mask = 1; mask <= subsets; ++mask) {
    std::set<std::size_t> invoked;
    for (std::size_t f = 0; f < function_count; ++f) {
      if ((mask >> f) & 1) invoked.insert(f);
    }
    scenarios.add("S" + std::to_string(mask), invoked,
                  1.0 / static_cast<double>(subsets));
  }
  return uc::UserLevelModel(std::move(catalog), std::move(functions),
                            std::move(scenarios));
}

}  // namespace

TEST(UserLevel, PathExpansionMatchesStateEnumeration) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    upa::sim::Xoshiro256 rng(seed);
    const uc::UserLevelModel model = random_model(rng);
    double expected_user = 0.0;
    for (const up::ScenarioClass& sc : model.scenarios().scenarios()) {
      const double oracle = enumerate_joint(model, sc.functions);
      EXPECT_NEAR(model.joint_success(sc.functions), oracle, 1e-12)
          << "seed " << seed << " scenario " << sc.label;
      expected_user += sc.probability * oracle;
    }
    EXPECT_NEAR(model.user_availability(), expected_user, 1e-12)
        << "seed " << seed;
    for (std::size_t f = 0; f < model.scenarios().function_names().size();
         ++f) {
      EXPECT_NEAR(model.function(f).availability(model.catalog()),
                  enumerate_joint(model, {f}), 1e-12)
          << "seed " << seed << " function " << f;
    }
  }
}

TEST(UserLevel, TravelAgencyScenariosMatchStateEnumeration) {
  for (const auto uclass : {upa::ta::UserClass::kA, upa::ta::UserClass::kB}) {
    for (std::size_t n_web = 1; n_web <= 8; ++n_web) {
      upa::ta::TaParameters p = upa::ta::TaParameters::paper_defaults();
      p.n_web = n_web;
      const uc::UserLevelModel model = upa::ta::build_user_model(uclass, p);
      for (const up::ScenarioClass& sc : model.scenarios().scenarios()) {
        EXPECT_NEAR(model.joint_success(sc.functions),
                    enumerate_joint(model, sc.functions), 1e-12)
            << sc.label << " n_web " << n_web;
      }
    }
  }
}

TEST(UserLevel, TwentyFourServicesNeedNoEnumeration) {
  // 24 involved services: 2^24 states would be enumerated. For all_of
  // functions the joint success is the product over their union.
  upa::sim::Xoshiro256 rng(24);
  uc::ServiceCatalog catalog;
  for (std::size_t s = 0; s < 24; ++s) {
    catalog.add("s" + std::to_string(s), 0.9 + 0.1 * rng.uniform01());
  }
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel::all_of("F", {0, 1, 2, 3, 4, 5, 6,
                                                      7, 8, 9, 10, 11, 12}));
  functions.push_back(uc::FunctionModel::all_of(
      "G", {10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}));
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("St-F-G-Ex", {0, 1}, 1.0);
  const uc::UserLevelModel model(std::move(catalog), std::move(functions),
                                 std::move(scenarios));
  double product = 1.0;
  for (uc::ServiceId s = 0; s < 24; ++s) {
    product *= model.catalog().availability(s);
  }
  EXPECT_NEAR(model.user_availability(), product, 1e-12);
  double product_f = 1.0;
  for (uc::ServiceId s = 0; s <= 12; ++s) {
    product_f *= model.catalog().availability(s);
  }
  EXPECT_NEAR(model.function(0).availability(model.catalog()), product_f,
              1e-12);
}

TEST(Performability, BreakdownSumsCorrectly) {
  upa::markov::Ctmc chain(3);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 2, 1.0);
  chain.add_rate(2, 0, 1.0);
  const uc::CompositeAvailabilityModel model(std::move(chain),
                                             {1.0, 0.5, 0.0});
  const auto b = model.breakdown();
  EXPECT_NEAR(b.availability, model.availability(), 1e-12);
  EXPECT_NEAR(b.availability + b.performance_loss + b.downtime_loss, 1.0,
              1e-12);
  // Uniform steady state by symmetry: availability = (1 + 0.5)/3.
  EXPECT_NEAR(model.availability(), 0.5, 1e-12);
}

TEST(Performability, RejectsBadRewards) {
  upa::markov::Ctmc chain = upa::markov::two_state_availability(1.0, 1.0);
  EXPECT_THROW(
      uc::CompositeAvailabilityModel(std::move(chain), {1.0, 1.5}),
      ModelError);
}

TEST(Performability, TimescaleSeparation) {
  upa::markov::Ctmc chain = upa::markov::two_state_availability(1e-4, 1.0);
  EXPECT_NEAR(uc::timescale_separation_ratio(chain, 3.6e5), 1.0 / 3.6e5,
              1e-12);
  EXPECT_THROW((void)uc::timescale_separation_ratio(chain, 0.0), ModelError);
}
