#include "tensor/autograd.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"

namespace nlidb {

Tensor& AutogradNode::EnsureGrad() {
  if (grad.shape() != value.shape()) {
    grad = Tensor::Zeros(value.shape());
  }
  return grad;
}

void AutogradNode::AccumulateGrad(const Tensor& g) {
  EnsureGrad().Add(g);
}

Var MakeVar(Tensor value, bool requires_grad) {
  // Every tape node is born here (ops.cc's NewNode goes through MakeVar),
  // so this counter is the deterministic "is anything still taping" probe
  // for inference paths (DESIGN.md §12).
  static metrics::Counter& nodes_created =
      metrics::MetricsRegistry::Global().GetCounter("autograd.nodes_created");
  nodes_created.Increment();
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

namespace {

// Iterative post-order DFS; recursion would overflow on long RNN chains.
void TopoSort(const Var& root, std::vector<AutogradNode*>& order) {
  std::unordered_set<AutogradNode*> visited;
  std::vector<std::pair<AutogradNode*, size_t>> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      AutogradNode* child = node->parents[next_child].get();
      ++next_child;
      if (child != nullptr && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  NLIDB_CHECK(root != nullptr) << "Backward on null var";
  std::vector<AutogradNode*> order;
  TopoSort(root, order);
  // Mark which nodes need gradients: a node needs a gradient if it is a
  // requires_grad leaf or any ancestor-path reaches one. Since `order` is
  // post-order (parents before children in the vector), propagate forward.
  for (AutogradNode* node : order) {
    if (!node->requires_grad) {
      for (const auto& p : node->parents) {
        if (p && p->requires_grad) {
          node->requires_grad = true;
          break;
        }
      }
    }
  }
  if (!root->requires_grad) return;
  root->EnsureGrad().Fill(1.0f);
  // Reverse topological order: children (outputs) before parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    AutogradNode* node = *it;
    if (node->requires_grad && node->backward_fn) {
      node->backward_fn(*node);
    }
  }
}

void ZeroGrad(const std::vector<Var>& vars) {
  for (const auto& v : vars) {
    if (v && !v->grad.empty()) v->grad.Fill(0.0f);
  }
}

namespace {
thread_local bool tls_inference_grad = false;
}  // namespace

InferenceGradScope::InferenceGradScope() : prev_(tls_inference_grad) {
  tls_inference_grad = true;
}

InferenceGradScope::~InferenceGradScope() { tls_inference_grad = prev_; }

bool InferenceGradScope::Active() { return tls_inference_grad; }

Tensor* GradSink(AutogradNode& node) {
  if (tls_inference_grad && node.backward_fn == nullptr) return nullptr;
  return &node.EnsureGrad();
}

}  // namespace nlidb
