/**
 * @file
 * Fully-connected (dense) layer.
 *
 * Weights are stored input-major: weight(i, o) lives at w[i * M + o].
 * This mirrors the interleaved Weights Buffer layout of the paper's
 * accelerator (Fig. 7), where the first weight of every neuron is
 * stored first so all weights touched by one input are contiguous —
 * exactly what the delta-correction z'_o = z_o + d_i * W_io needs.
 */

#ifndef REUSE_DNN_NN_FULLY_CONNECTED_H
#define REUSE_DNN_NN_FULLY_CONNECTED_H

#include "common/aligned.h"
#include "nn/layer.h"

namespace reuse {

/**
 * Dense layer computing out(j) = sum_i w(i,j) * in(i) + b(j) (Eq. 1).
 */
class FullyConnectedLayer : public Layer
{
  public:
    /**
     * Creates an FC layer with zero-initialized parameters.
     *
     * @param name Layer name used in reports.
     * @param inputs Number of inputs N.
     * @param outputs Number of output neurons M.
     */
    FullyConnectedLayer(std::string name, int64_t inputs, int64_t outputs);

    LayerKind kind() const override { return LayerKind::FullyConnected; }
    ShapeInference inferOutputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input) const override;
    int64_t paramCount() const override;
    int64_t macCount(const Shape &input) const override;

    /** Number of inputs N. */
    int64_t inputs() const { return inputs_; }

    /** Number of output neurons M. */
    int64_t outputs() const { return outputs_; }

    /** Weight for (input i, output o). */
    float weight(int64_t i, int64_t o) const
    {
        return weights_[i * outputs_ + o];
    }

    /** Mutable weight for (input i, output o). */
    float &weight(int64_t i, int64_t o)
    {
        return weights_[i * outputs_ + o];
    }

    /** Input-major weight storage: w[i * outputs + o], 64B-aligned. */
    const AlignedVector<float> &weights() const { return weights_; }

    /** Mutable weight storage. */
    AlignedVector<float> &weights() { return weights_; }

    /** Bias vector, one entry per output neuron, 64B-aligned. */
    const AlignedVector<float> &biases() const { return biases_; }

    /** Mutable bias vector. */
    AlignedVector<float> &biases() { return biases_; }

  private:
    int64_t inputs_;
    int64_t outputs_;
    AlignedVector<float> weights_;
    AlignedVector<float> biases_;
};

} // namespace reuse

#endif // REUSE_DNN_NN_FULLY_CONNECTED_H
