// Copyright 2026 The GraphRARE Authors.
//
// Module base class: a named registry of trainable parameters (Variables).
// Composite modules register their children's parameters transitively.
// StateDict()/LoadStateDict() snapshot and restore all parameters by name,
// which is what model artifacts (src/serve/artifact.h) persist.

#ifndef GRAPHRARE_NN_MODULE_H_
#define GRAPHRARE_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "tensor/autograd.h"

namespace graphrare {
namespace nn {

/// Named snapshot of a module's parameter tensors, in NamedParameters()
/// order. The unit of model persistence: artifacts store exactly this.
using StateDict = std::vector<std::pair<std::string, tensor::Tensor>>;

/// Base class for everything with trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters, including those of registered children.
  std::vector<tensor::Variable> Parameters() const {
    std::vector<tensor::Variable> out;
    CollectParameters(&out);
    return out;
  }

  /// Named parameters (diagnostics, serialization).
  std::vector<std::pair<std::string, tensor::Variable>> NamedParameters()
      const {
    std::vector<std::pair<std::string, tensor::Variable>> out;
    CollectNamedParameters("", &out);
    return out;
  }

  /// Deep-copies every parameter into a name -> tensor snapshot.
  nn::StateDict StateDict() const {
    nn::StateDict out;
    for (const auto& [name, v] : NamedParameters()) {
      out.emplace_back(name, v.value());
    }
    return out;
  }

  /// Restores parameters from a snapshot taken on an identically-shaped
  /// module. Entries are matched by name (any order); the dict must cover
  /// every parameter exactly once, with matching shapes. On error the
  /// module is left unchanged.
  Status LoadStateDict(const nn::StateDict& dict) {
    auto params = NamedParameters();
    if (dict.size() != params.size()) {
      return Status::InvalidArgument(StrFormat(
          "state dict holds %zu tensors but module has %zu parameters",
          dict.size(), params.size()));
    }
    // Resolve every entry before writing anything, so a failed load never
    // leaves the module half-restored.
    std::vector<const tensor::Tensor*> sources(params.size(), nullptr);
    for (const auto& [name, value] : dict) {
      size_t i = 0;
      while (i < params.size() && params[i].first != name) ++i;
      if (i == params.size()) {
        return Status::InvalidArgument(
            StrFormat("state dict names unknown parameter '%s'",
                      name.c_str()));
      }
      if (sources[i] != nullptr) {
        return Status::InvalidArgument(StrFormat(
            "state dict names parameter '%s' twice", name.c_str()));
      }
      if (!params[i].second.value().SameShape(value)) {
        return Status::InvalidArgument(StrFormat(
            "parameter '%s' is %lldx%lld but the state dict entry is "
            "%lldx%lld",
            name.c_str(), static_cast<long long>(params[i].second.rows()),
            static_cast<long long>(params[i].second.cols()),
            static_cast<long long>(value.rows()),
            static_cast<long long>(value.cols())));
      }
      sources[i] = &value;
    }
    for (size_t i = 0; i < params.size(); ++i) {
      *params[i].second.mutable_value() = *sources[i];
    }
    return Status::OK();
  }

  void ZeroGrad() {
    for (auto& p : Parameters()) p.ZeroGrad();
  }

 protected:
  /// Registers a leaf parameter initialised with `init`; returns the handle.
  tensor::Variable RegisterParameter(std::string name, tensor::Tensor init) {
    tensor::Variable v(std::move(init), /*requires_grad=*/true);
    params_.emplace_back(std::move(name), v);
    return v;
  }

  /// Registers a child module (not owned).
  void RegisterChild(std::string name, Module* child) {
    children_.emplace_back(std::move(name), child);
  }

 private:
  void CollectParameters(std::vector<tensor::Variable>* out) const {
    for (const auto& [name, v] : params_) out->push_back(v);
    for (const auto& [name, child] : children_) child->CollectParameters(out);
  }

  void CollectNamedParameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, tensor::Variable>>* out) const {
    for (const auto& [name, v] : params_) {
      out->emplace_back(prefix + name, v);
    }
    for (const auto& [name, child] : children_) {
      child->CollectNamedParameters(prefix + name + ".", out);
    }
  }

  std::vector<std::pair<std::string, tensor::Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_MODULE_H_
