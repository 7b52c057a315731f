#include "fully_connected.h"

#include "common/logging.h"
#include "ir/op_shapes.h"
#include "kernels/delta_kernels.h"

namespace reuse {

FullyConnectedLayer::FullyConnectedLayer(std::string name, int64_t inputs,
                                         int64_t outputs)
    : Layer(std::move(name)),
      inputs_(inputs),
      outputs_(outputs),
      weights_(static_cast<size_t>(inputs * outputs), 0.0f),
      biases_(static_cast<size_t>(outputs), 0.0f)
{
    REUSE_ASSERT(inputs > 0 && outputs > 0,
                 "FC layer needs positive dims, got " << inputs << "x"
                                                      << outputs);
}

ShapeInference
FullyConnectedLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(
        ir::inferFullyConnected(name(), input, inputs_, outputs_));
}

Tensor
FullyConnectedLayer::forward(const Tensor &input) const
{
    REUSE_ASSERT(input.numel() == inputs_,
                 name() << ": input has " << input.numel()
                        << " elements, expected " << inputs_);
    Tensor out(Shape({outputs_}));
    // Blocked GEMV over the input-major weights; zero (quantized)
    // inputs are skipped inside the kernel.
    kernels::gemv(input.data().data(), inputs_, weights_.data(),
                  biases_.data(), outputs_, out.data().data());
    return out;
}

int64_t
FullyConnectedLayer::paramCount() const
{
    return inputs_ * outputs_ + outputs_;
}

int64_t
FullyConnectedLayer::macCount(const Shape &input) const
{
    (void)input;
    return inputs_ * outputs_;
}

} // namespace reuse
