#ifndef NLIDB_TENSOR_AUTOGRAD_H_
#define NLIDB_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace nlidb {

/// Reverse-mode automatic differentiation over `Tensor`s.
///
/// A computation builds a dynamic DAG of `AutogradNode`s (one per op
/// output). `Backward(root)` topologically sorts the DAG and runs each
/// node's backward closure, accumulating gradients into `grad` fields.
/// Graphs are rebuilt per example (define-by-run), exactly like the
/// PyTorch programs the paper's models were written in.
class AutogradNode {
 public:
  Tensor value;
  Tensor grad;  // allocated lazily to value's shape on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<AutogradNode>> parents;
  /// Accumulates into parents' grads given this node's grad. Null for leaves.
  std::function<void(AutogradNode&)> backward_fn;

  /// Ensures `grad` is allocated (zero) with value's shape.
  Tensor& EnsureGrad();
  /// Adds `g` into this node's gradient.
  void AccumulateGrad(const Tensor& g);
};

using Var = std::shared_ptr<AutogradNode>;

/// Wraps a tensor as a graph leaf. Parameters pass requires_grad = true.
/// Every node (leaf or op output) is allocated here and counted in the
/// `autograd.nodes_created` metric.
Var MakeVar(Tensor value, bool requires_grad = false);

/// Runs reverse-mode differentiation from `root`, seeding d(root)/d(root)
/// with ones (for scalar losses root is [1]). Safe to call on any graph;
/// nodes without requires_grad in their ancestry are skipped.
void Backward(const Var& root);

/// Clears gradients on the given variables (typically parameters between
/// steps; graph intermediates are freed with the graph).
void ZeroGrad(const std::vector<Var>& vars);

/// Marks the current thread as running an inference-time backward pass
/// (adversarial influence probing, DESIGN.md "Performance architecture").
///
/// While a scope is active on a thread, GradSink() returns nullptr for
/// graph leaves (nodes with no backward_fn: parameters and constant
/// inputs), so backward closures skip writing weight gradients entirely.
/// That makes concurrent Backward() calls over graphs that share
/// parameter nodes race-free — the only shared state written during a
/// training backward is exactly those leaf grads — and skips the dW GEMMs
/// influence probing never reads. Intermediate nodes (including the
/// embedding activations whose grads the influence profile reads) are
/// per-graph and still accumulate normally.
class [[nodiscard]] InferenceGradScope {
 public:
  InferenceGradScope();
  ~InferenceGradScope();
  InferenceGradScope(const InferenceGradScope&) = delete;
  InferenceGradScope& operator=(const InferenceGradScope&) = delete;

  /// True when the calling thread is inside an InferenceGradScope.
  [[nodiscard]] static bool Active();

 private:
  bool prev_;
};

/// The gradient buffer a backward closure should accumulate into for
/// `node`, or nullptr when the write (and the work producing it) should
/// be skipped — see InferenceGradScope. Closures must route every
/// parent-grad write through this; [[nodiscard]] because calling it and
/// then writing `node.grad` directly would reintroduce exactly the
/// shared-parameter race the scope exists to prevent.
[[nodiscard]] Tensor* GradSink(AutogradNode& node);

}  // namespace nlidb

#endif  // NLIDB_TENSOR_AUTOGRAD_H_
