#include "experiments/streaming/reducer_registry.hpp"

#include <stdexcept>

namespace avmon::experiments::streaming {

ReducerRegistry::ReducerRegistry() {
  add({"summary",
       "MetricSet-compatible end-of-run summary (stats + quantile sketches)",
       /*windowed=*/false, [] { return makeSummaryReducer(); }});
  add({"traffic", "windowed outgoing bytes/messages time-series",
       /*windowed=*/true, [] { return makeTrafficReducer(); }});
  add({"discovery", "windowed first-monitor discovery counts",
       /*windowed=*/true, [] { return makeDiscoveryReducer(); }});
  add({"resilience", "windowed victim eclipse gauges under the adversary",
       /*windowed=*/true, [] { return makeResilienceReducer(); }});
}

ReducerRegistry& ReducerRegistry::instance() {
  static ReducerRegistry registry;
  return registry;
}

void ReducerRegistry::add(ReducerFactory factory) {
  if (factory.name.empty()) {
    throw std::invalid_argument("ReducerRegistry: factory name is empty");
  }
  if (find(factory.name) != nullptr) {
    throw std::invalid_argument("ReducerRegistry: duplicate reducer '" +
                                factory.name + "'");
  }
  if (!factory.make) {
    throw std::invalid_argument("ReducerRegistry: reducer '" + factory.name +
                                "' has no make function");
  }
  factories_.push_back(std::move(factory));
}

const ReducerFactory* ReducerRegistry::find(const std::string& name) const {
  for (const ReducerFactory& factory : factories_) {
    if (factory.name == name) return &factory;
  }
  return nullptr;
}

std::unique_ptr<Reducer> ReducerRegistry::create(
    const std::string& name) const {
  const ReducerFactory* factory = find(name);
  if (factory == nullptr) {
    throw std::invalid_argument("ReducerRegistry: unknown reducer '" + name +
                                "' — known reducers: " + namesJoined());
  }
  return factory->make();
}

std::vector<std::string> ReducerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const ReducerFactory& factory : factories_) out.push_back(factory.name);
  return out;
}

std::string ReducerRegistry::namesJoined() const {
  std::string out;
  for (const ReducerFactory& factory : factories_) {
    if (!out.empty()) out += ", ";
    out += factory.name;
  }
  return out;
}

}  // namespace avmon::experiments::streaming
