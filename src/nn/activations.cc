#include "activations.h"

#include <cmath>

#include "common/math_utils.h"
#include "ir/op_shapes.h"
#include "kernels/delta_kernels.h"

namespace reuse {

const char *
activationKindName(ActivationKind kind)
{
    switch (kind) {
      case ActivationKind::ReLU:
        return "relu";
      case ActivationKind::Sigmoid:
        return "sigmoid";
      case ActivationKind::Tanh:
        return "tanh";
      case ActivationKind::Softmax:
        return "softmax";
      case ActivationKind::Atan:
        return "atan";
      case ActivationKind::Identity:
        return "identity";
    }
    return "unknown";
}

void
applyActivation(ActivationKind kind, Tensor &t)
{
    const int64_t n = t.numel();
    switch (kind) {
      case ActivationKind::ReLU:
        for (int64_t i = 0; i < n; ++i)
            t[i] = t[i] > 0.0f ? t[i] : 0.0f;
        break;
      case ActivationKind::Sigmoid:
        for (int64_t i = 0; i < n; ++i)
            t[i] = sigmoid(t[i]);
        break;
      case ActivationKind::Tanh:
        for (int64_t i = 0; i < n; ++i)
            t[i] = std::tanh(t[i]);
        break;
      case ActivationKind::Atan:
        for (int64_t i = 0; i < n; ++i)
            t[i] = std::atan(t[i]);
        break;
      case ActivationKind::Identity:
        break;
      case ActivationKind::Softmax:
        kernels::softmax(t.data().data(), n);
        break;
    }
}

ActivationLayer::ActivationLayer(std::string name,
                                 ActivationKind activation)
    : Layer(std::move(name)), activation_(activation)
{
}

ShapeInference
ActivationLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(ir::inferActivation(input));
}

Tensor
ActivationLayer::forward(const Tensor &input) const
{
    Tensor out = input;
    applyActivation(activation_, out);
    return out;
}

ShapeInference
FlattenLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(ir::inferFlatten(input));
}

} // namespace reuse
