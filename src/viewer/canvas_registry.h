#ifndef TIOGA2_VIEWER_CANVAS_REGISTRY_H_
#define TIOGA2_VIEWER_CANVAS_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "display/displayable.h"

namespace tioga2::viewer {

/// Maps canvas names to the displayables shown on them. Wormhole drawables
/// (§6.2) name their destination canvas; the registry resolves the name when
/// the wormhole is rendered or flown through. Providers are functions so
/// that resolution pulls through the (lazy) dataflow engine.
///
/// Not thread-safe: the owner serializes access (DESIGN.md §13). Each
/// ui::Session owns one registry, and runtime::SessionServer runs every
/// handler for a session under that session's mutex.
class CanvasRegistry {
 public:
  using Provider = std::function<Result<display::Displayable>()>;

  /// Registers (or replaces) the provider for `name`.
  void Register(const std::string& name, Provider provider);

  /// Removes a canvas (when its viewer box is deleted). Idempotent.
  void Unregister(const std::string& name);

  /// Evaluates the provider for `name`.
  Result<display::Displayable> Resolve(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// All canvas names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Provider> providers_;
};

}  // namespace tioga2::viewer

#endif  // TIOGA2_VIEWER_CANVAS_REGISTRY_H_
