#include "nn/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "nn/workspace.h"

namespace cews::nn {

namespace {
thread_local bool g_grad_mode = true;
thread_local uint64_t g_next_seq = 0;
}  // namespace

bool GradModeEnabled() { return g_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

Index NumElements(const Shape& shape) {
  Index n = 1;
  for (Index d : shape) {
    CEWS_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

TensorImpl::TensorImpl() : seq(++g_next_seq) {}

TensorImpl::~TensorImpl() {
  Workspace::Recycle(std::move(data));
  Workspace::Recycle(std::move(grad));
}

void TensorImpl::EnsureGrad() {
  if (grad.empty()) {
    grad = Workspace::AcquireVec(static_cast<Index>(data.size()));
  }
}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = Workspace::AcquireVec(NumElements(shape));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  Tensor t = Zeros(shape, requires_grad);
  for (Index i = 0; i < t.numel(); ++i) t.data()[i] = value;
  return t;
}

Tensor Tensor::FromData(const Shape& shape, std::vector<float> data,
                        bool requires_grad) {
  CEWS_CHECK_EQ(static_cast<size_t>(NumElements(shape)), data.size());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value) { return Full({}, value); }

const Shape& Tensor::shape() const {
  CEWS_CHECK(defined());
  return impl_->shape;
}

int Tensor::ndim() const { return static_cast<int>(shape().size()); }

Index Tensor::dim(int i) const {
  const Shape& s = shape();
  if (i < 0) i += static_cast<int>(s.size());
  CEWS_CHECK_GE(i, 0);
  CEWS_CHECK_LT(static_cast<size_t>(i), s.size());
  return s[static_cast<size_t>(i)];
}

Index Tensor::numel() const {
  CEWS_CHECK(defined());
  return static_cast<Index>(impl_->data.size());
}

float* Tensor::data() {
  CEWS_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  CEWS_CHECK(defined());
  return impl_->data.data();
}

float* Tensor::grad() {
  CEWS_CHECK(defined());
  return impl_->grad.empty() ? nullptr : impl_->grad.data();
}

const float* Tensor::grad() const {
  CEWS_CHECK(defined());
  return impl_->grad.empty() ? nullptr : impl_->grad.data();
}

bool Tensor::requires_grad() const {
  CEWS_CHECK(defined());
  return impl_->requires_grad;
}

float Tensor::item() const {
  CEWS_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

float Tensor::at(std::initializer_list<Index> idx) const {
  const Shape& s = shape();
  CEWS_CHECK_EQ(idx.size(), s.size());
  Index flat = 0;
  size_t d = 0;
  for (Index i : idx) {
    CEWS_CHECK_GE(i, 0);
    CEWS_CHECK_LT(i, s[d]);
    flat = flat * s[d] + i;
    ++d;
  }
  return impl_->data[static_cast<size_t>(flat)];
}

std::vector<float> Tensor::ToVector() const {
  CEWS_CHECK(defined());
  return impl_->data;
}

void Tensor::ZeroGrad() {
  CEWS_CHECK(defined());
  if (impl_->grad.size() == impl_->data.size()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);  // no realloc
  } else {
    Workspace::Recycle(std::move(impl_->grad));
    impl_->grad = Workspace::AcquireVec(static_cast<Index>(impl_->data.size()));
  }
}

Tensor Tensor::Detach() const {
  CEWS_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // value copy; detached view is fine at our scale
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::Clone() const { return Detach(); }

void Tensor::Backward() {
  CEWS_CHECK(defined());
  CEWS_CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";
  CEWS_CHECK(!impl_->backward_done)
      << "double Backward() on the same tape root: gradients would "
         "double-accumulate; rebuild the loss first";
  impl_->backward_done = true;
  // Collect every node reachable through tape edges.
  std::vector<TensorImpl*> nodes;
  std::unordered_set<TensorImpl*> visited;
  std::vector<TensorImpl*> stack;
  stack.push_back(impl_.get());
  visited.insert(impl_.get());
  while (!stack.empty()) {
    TensorImpl* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (const auto& parent : node->parents) {
      if (visited.insert(parent.get()).second) stack.push_back(parent.get());
    }
  }
  // Descending creation order is a valid reverse topological order (an op's
  // inputs always predate its output), and it fixes the sequence in which
  // shared parents accumulate their gradients.
  std::sort(nodes.begin(), nodes.end(),
            [](const TensorImpl* a, const TensorImpl* b) {
              return a->seq > b->seq;
            });
  // Seed d(loss)/d(loss) = 1 and propagate.
  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;
  for (TensorImpl* node : nodes) {
    if (node->backward_fn) node->backward_fn();
  }
}

}  // namespace cews::nn
