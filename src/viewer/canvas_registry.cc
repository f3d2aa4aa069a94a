#include "viewer/canvas_registry.h"

namespace tioga2::viewer {

void CanvasRegistry::Register(const std::string& name, Provider provider) {
  providers_[name] = std::move(provider);
}

void CanvasRegistry::Unregister(const std::string& name) {
  providers_.erase(name);
}

Result<display::Displayable> CanvasRegistry::Resolve(const std::string& name) const {
  auto it = providers_.find(name);
  if (it == providers_.end()) {
    return Status::NotFound("no canvas named '" + name + "'");
  }
  // Called through a copy, so the call never depends on the map entry
  // staying put: the provider evaluates through the engine, and rendering a
  // wormhole re-enters the registry for the destination canvas.
  Provider provider = it->second;
  return provider();
}

bool CanvasRegistry::Has(const std::string& name) const {
  return providers_.count(name) > 0;
}

std::vector<std::string> CanvasRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(providers_.size());
  for (const auto& [name, provider] : providers_) names.push_back(name);
  return names;
}

}  // namespace tioga2::viewer
