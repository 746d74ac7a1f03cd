#include "upa/core/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory_resource>
#include <numeric>

#include "upa/common/error.hpp"
#include "upa/common/numeric.hpp"

namespace upa::core {

ServiceId ServiceCatalog::add(std::string name, double availability) {
  UPA_REQUIRE(!name.empty(), "service name must not be empty");
  for (const std::string& existing : names_) {
    UPA_REQUIRE(existing != name, "duplicate service " + name);
  }
  names_.push_back(std::move(name));
  availability_.push_back(upa::common::clamp_probability(availability));
  return names_.size() - 1;
}

const std::string& ServiceCatalog::name(ServiceId id) const {
  UPA_REQUIRE(id < names_.size(), "service id out of range");
  return names_[id];
}

double ServiceCatalog::availability(ServiceId id) const {
  UPA_REQUIRE(id < availability_.size(), "service id out of range");
  return availability_[id];
}

ServiceId ServiceCatalog::id_of(const std::string& name) const {
  for (ServiceId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  throw upa::common::ModelError("unknown service " + name);
}

void ServiceCatalog::set_availability(ServiceId id, double availability) {
  UPA_REQUIRE(id < availability_.size(), "service id out of range");
  availability_[id] = upa::common::clamp_probability(availability);
}

FunctionModel::FunctionModel(std::string name,
                             std::vector<ExecutionPath> paths)
    : name_(std::move(name)), paths_(std::move(paths)) {
  UPA_REQUIRE(!name_.empty(), "function name must not be empty");
  UPA_REQUIRE(!paths_.empty(), "function needs at least one execution path");
  double total = 0.0;
  for (const ExecutionPath& path : paths_) {
    UPA_REQUIRE(upa::common::is_probability(path.probability),
                "path probability out of range in function " + name_);
    total += path.probability;
    for (ServiceId s : path.services) involved_.push_back(s);
  }
  UPA_REQUIRE(std::abs(total - 1.0) <= 1e-9,
              "path probabilities of function " + name_ + " sum to " +
                  std::to_string(total));
  std::sort(involved_.begin(), involved_.end());
  involved_.erase(std::unique(involved_.begin(), involved_.end()),
                  involved_.end());
}

FunctionModel FunctionModel::all_of(std::string name,
                                    std::vector<ServiceId> services) {
  return FunctionModel(std::move(name),
                       {ExecutionPath{1.0, std::move(services)}});
}

double FunctionModel::success_given(
    const std::vector<bool>& service_up) const {
  double success = 0.0;
  for (const ExecutionPath& path : paths_) {
    bool all_up = true;
    for (ServiceId s : path.services) {
      UPA_REQUIRE(s < service_up.size(), "service id out of range");
      all_up = all_up && service_up[s];
    }
    if (all_up) success += path.probability;
  }
  return success;
}

double FunctionModel::availability(const ServiceCatalog& catalog) const {
  double total = 0.0;
  for (const ExecutionPath& path : paths_) {
    double product = path.probability;
    for (ServiceId s : std::set(path.services.begin(), path.services.end())) {
      product *= catalog.availability(s);
    }
    total += product;
  }
  return total;
}

UserLevelModel::UserLevelModel(ServiceCatalog catalog,
                               std::vector<FunctionModel> functions,
                               profile::ScenarioSet scenarios)
    : catalog_(std::move(catalog)),
      functions_(std::move(functions)),
      scenarios_(std::move(scenarios)) {
  const auto& names = scenarios_.function_names();
  UPA_REQUIRE(functions_.size() == names.size(),
              "one FunctionModel per scenario-set function required");
  for (const FunctionModel& function : functions_) {
    const std::string& name = names[first_path_.size() - 1];
    UPA_REQUIRE(function.name() == name,
                "function model '" + function.name() +
                    "' does not match scenario function '" + name + "'");
    for (const ExecutionPath& path : function.paths()) {
      std::vector<std::uint64_t> set(words_, 0);
      for (ServiceId s : path.services) {
        UPA_REQUIRE(s < catalog_.size(),
                    "function " + name + " uses a service outside the catalog");
        set[s / 64] |= std::uint64_t{1} << (s % 64);
      }
      if (path.probability == 0.0) continue;
      path_probability_.push_back(path.probability);
      path_services_.insert(path_services_.end(), set.begin(), set.end());
    }
    first_path_.push_back(path_probability_.size());
  }
}

const FunctionModel& UserLevelModel::function(std::size_t i) const {
  UPA_REQUIRE(i < functions_.size(), "function index out of range");
  return functions_[i];
}

double UserLevelModel::joint_success(
    const std::set<std::size_t>& functions) const {
  UPA_REQUIRE(!functions.empty(), "need at least one function");
  std::pmr::monotonic_buffer_resource arena;  // one allocation per call
  std::pmr::vector<std::uint64_t> sets(words_, 0, &arena);
  std::pmr::vector<double> mass({1.0}, &arena);
  for (std::size_t f : functions) {
    UPA_REQUIRE(f < functions_.size(), "function index out of range");
    const std::size_t n = mass.size();  // unions so far; f's are appended
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = first_path_[f]; j < first_path_[f + 1]; ++j) {
        double m = mass[i] * path_probability_[j];  // * A_s of new services
        const std::size_t at = sets.size();
        for (std::size_t w = 0; w < words_; ++w) {
          const std::uint64_t had = sets[i * words_ + w];
          sets.push_back(had | path_services_[j * words_ + w]);
          for (auto bits = sets.back() & ~had; bits != 0; bits &= bits - 1) {
            m *= catalog_.availability(w * 64 + std::countr_zero(bits));
          }
        }
        std::size_t k = n * words_;  // an equal union of f's, else `at`
        while (!std::equal(&sets[k], &sets[k] + words_, &sets[at])) k += words_;
        if (k < at) sets.resize(at);  // merged: drop the candidate
        else mass.push_back(0.0);
        mass[k / words_] += m;
      }
    }
    sets.erase(sets.begin(), sets.begin() + n * words_);
    mass.erase(mass.begin(), mass.begin() + n);
  }
  return std::accumulate(mass.begin(), mass.end(), 0.0);
}

double UserLevelModel::scenario_availability(
    const profile::ScenarioClass& scenario) const {
  return joint_success(scenario.functions);
}

double UserLevelModel::user_availability() const {
  scenarios_.validate_complete();
  double total = 0.0;
  for (const profile::ScenarioClass& scenario : scenarios_.scenarios()) {
    total += scenario.probability * scenario_availability(scenario);
  }
  return total;
}

std::vector<double> UserLevelModel::unavailability_contributions() const {
  std::vector<double> contributions;
  contributions.reserve(scenarios_.scenarios().size());
  for (const profile::ScenarioClass& scenario : scenarios_.scenarios()) {
    contributions.push_back(scenario.probability *
                            (1.0 - scenario_availability(scenario)));
  }
  return contributions;
}

}  // namespace upa::core
