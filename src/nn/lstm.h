/**
 * @file
 * LSTM cell and bidirectional LSTM layer (Sec. II-C of the paper).
 *
 * Each of the four gates (input, forget, cell-updater, output) is a
 * pair of fully-connected sublayers: one over the feed-forward input
 * x_t and one over the recurrent input h_{t-1} (Eqs. 3-6).  Building
 * the gates from FullyConnectedLayer lets the reuse engine correct
 * gate pre-activations with the exact same delta kernel used for
 * plain FC layers.
 */

#ifndef REUSE_DNN_NN_LSTM_H
#define REUSE_DNN_NN_LSTM_H

#include <array>

#include "common/aligned.h"
#include "kernels/change_list.h"
#include "kernels/dispatch.h"
#include "nn/fully_connected.h"
#include "nn/layer.h"

namespace reuse {

/** Gate indices within an LSTM cell. */
enum LstmGate : int {
    GateInput = 0,
    GateForget = 1,
    GateCell = 2,
    GateOutput = 3,
    NumLstmGates = 4,
};

/**
 * Single-direction LSTM cell.
 *
 * The cell's per-step state is (h, c); stepping the cell computes the
 * four gate pre-activations, then combines them elementwise (Eqs. 7-8).
 * The biases b_* are folded into the feed-forward sublayers.  A step
 * updates the state in place and allocates nothing once the buffers
 * it reuses are sized.
 */
class LstmCell
{
  public:
    /** Combined per-step state of an LSTM cell (64B-aligned). */
    struct State {
        AlignedVector<float> h;   ///< Hidden output h_t.
        AlignedVector<float> c;   ///< Cell state c_t.
    };

    /** Gate pre-activations before sigma/phi are applied. */
    using Preacts =
        std::array<AlignedVector<float>, NumLstmGates>;

    /** Buffers a from-scratch step reuses from one step to the next. */
    struct Workspace {
        Preacts preacts;
        kernels::ChangeList x_rows;  ///< Nonzero entries of x_t.
        kernels::ChangeList h_rows;  ///< Nonzero entries of h_{t-1}.
    };

    /**
     * @param input_dim Dimension of the feed-forward input x_t.
     * @param cell_dim Dimension of the cell state / hidden output.
     */
    LstmCell(int64_t input_dim, int64_t cell_dim);

    int64_t inputDim() const { return input_dim_; }
    int64_t cellDim() const { return cell_dim_; }

    /** Zero-initialized (h, c) for sequence start. */
    State initialState() const;

    /** Feed-forward sublayer (x-weights + bias) of `gate`. */
    FullyConnectedLayer &feedForward(int gate)
    {
        return *wx_[static_cast<size_t>(gate)];
    }
    const FullyConnectedLayer &feedForward(int gate) const
    {
        return *wx_[static_cast<size_t>(gate)];
    }

    /** Recurrent sublayer (h-weights, zero bias) of `gate`. */
    FullyConnectedLayer &recurrent(int gate)
    {
        return *wh_[static_cast<size_t>(gate)];
    }
    const FullyConnectedLayer &recurrent(int gate) const
    {
        return *wh_[static_cast<size_t>(gate)];
    }

    /**
     * Computes the four gate pre-activations from scratch:
     * z_g = (bx_g + bh_g) + Wx_g x + Wh_g h_prev, accumulated in
     * ascending input order, x before h_prev.  The inputs come as
     * their nonzero rows (kernels::collectRows / quantizeRows), which
     * the four gates share.
     */
    void computePreacts(const kernels::ChangeList &x_rows,
                        const kernels::ChangeList &h_rows,
                        Preacts &preacts) const;

    /**
     * Elementwise tail of the step (Eqs. 7-8): updates `state` from
     * the pre-activations, c_t in place of c_{t-1}, then h_t.
     */
    void finishStep(const Preacts &preacts, State &state) const;

    /** Full step in place: computePreacts + finishStep. */
    void step(const float *x, State &state, Workspace &ws) const;

    /** Total trainable parameters in the cell. */
    int64_t paramCount() const;

    /** MACs of one from-scratch cell step. */
    int64_t macCountPerStep() const;

  private:
    int64_t input_dim_;
    int64_t cell_dim_;
    std::array<std::unique_ptr<FullyConnectedLayer>, NumLstmGates> wx_;
    std::array<std::unique_ptr<FullyConnectedLayer>, NumLstmGates> wh_;
};

/**
 * Unidirectional LSTM layer: a single cell run forward over the
 * sequence; per-step output is h_t, so the layer's output dimension
 * equals the cell dimension (Sec. II-C: a recurrent layer contains
 * one or two LSTM cells).
 */
class LstmLayer : public Layer
{
  public:
    /**
     * @param name Layer name used in reports.
     * @param input_dim Per-step input dimension.
     * @param cell_dim Cell dimension.
     */
    LstmLayer(std::string name, int64_t input_dim, int64_t cell_dim);

    LayerKind kind() const override { return LayerKind::Lstm; }
    ShapeInference inferOutputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input) const override;
    std::vector<Tensor>
    forwardSequence(const std::vector<Tensor> &inputs) const override;
    int64_t paramCount() const override;
    int64_t macCount(const Shape &input) const override;
    bool isRecurrent() const override { return true; }

    int64_t inputDim() const { return input_dim_; }
    int64_t cellDim() const { return cell_dim_; }

    LstmCell &cell() { return cell_; }
    const LstmCell &cell() const { return cell_; }

  private:
    int64_t input_dim_;
    int64_t cell_dim_;
    LstmCell cell_;
};

/**
 * Bidirectional LSTM layer: a forward and a backward cell run over the
 * sequence; per-step outputs are the concatenation [h_fw ; h_bw], so
 * the layer's output dimension is 2 * cell_dim (Fig. 2).  The two
 * directions are independent: above the kernel threading threshold
 * the backward one runs on the kernel pool while the caller runs the
 * forward one (kernels::runPair), each filling its half of the
 * outputs, with the same bits as one after the other.
 */
class BiLstmLayer : public Layer
{
  public:
    /**
     * @param name Layer name used in reports.
     * @param input_dim Per-step input dimension.
     * @param cell_dim Cell dimension of each direction.
     */
    BiLstmLayer(std::string name, int64_t input_dim, int64_t cell_dim);

    LayerKind kind() const override { return LayerKind::BiLstm; }
    ShapeInference inferOutputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input) const override;
    std::vector<Tensor>
    forwardSequence(const std::vector<Tensor> &inputs) const override;
    /** forwardSequence() fanning the directions out on `dispatch`. */
    std::vector<Tensor>
    forwardSequence(const std::vector<Tensor> &inputs,
                    const kernels::DeltaDispatch &dispatch) const;
    int64_t paramCount() const override;
    int64_t macCount(const Shape &input) const override;
    bool isRecurrent() const override { return true; }

    int64_t inputDim() const { return input_dim_; }
    int64_t cellDim() const { return cell_dim_; }
    int64_t outputDim() const { return 2 * cell_dim_; }

    LstmCell &forwardCell() { return forward_cell_; }
    const LstmCell &forwardCell() const { return forward_cell_; }
    LstmCell &backwardCell() { return backward_cell_; }
    const LstmCell &backwardCell() const { return backward_cell_; }

  private:
    int64_t input_dim_;
    int64_t cell_dim_;
    LstmCell forward_cell_;
    LstmCell backward_cell_;
};

} // namespace reuse

#endif // REUSE_DNN_NN_LSTM_H
