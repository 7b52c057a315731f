#include "lstm.h"

#include <algorithm>

#include "common/logging.h"
#include "ir/op_shapes.h"
#include "kernels/delta_kernels.h"

namespace reuse {

LstmCell::LstmCell(int64_t input_dim, int64_t cell_dim)
    : input_dim_(input_dim), cell_dim_(cell_dim)
{
    REUSE_ASSERT(input_dim > 0 && cell_dim > 0,
                 "invalid LSTM cell dimensions");
    static const char *gate_names[NumLstmGates] = {"i", "f", "g", "o"};
    for (int g = 0; g < NumLstmGates; ++g) {
        wx_[static_cast<size_t>(g)] =
            std::make_unique<FullyConnectedLayer>(
                std::string("Wx_") + gate_names[g], input_dim, cell_dim);
        wh_[static_cast<size_t>(g)] =
            std::make_unique<FullyConnectedLayer>(
                std::string("Wh_") + gate_names[g], cell_dim, cell_dim);
    }
}

LstmCell::State
LstmCell::initialState() const
{
    State s;
    s.h.assign(static_cast<size_t>(cell_dim_), 0.0f);
    s.c.assign(static_cast<size_t>(cell_dim_), 0.0f);
    return s;
}

void
LstmCell::computePreacts(const kernels::ChangeList &x_rows,
                         const kernels::ChangeList &h_rows,
                         Preacts &preacts) const
{
    const size_t n = static_cast<size_t>(cell_dim_);
    for (size_t g = 0; g < NumLstmGates; ++g) {
        const float *bx = wx_[g]->biases().data();
        const float *bh = wh_[g]->biases().data();
        auto &z = preacts[g];
        z.resize(n);
        for (size_t j = 0; j < n; ++j)
            z[j] = bx[j] + bh[j];
        kernels::applyDeltas(x_rows, wx_[g]->weights().data(), cell_dim_,
                             z.data());
        kernels::applyDeltas(h_rows, wh_[g]->weights().data(), cell_dim_,
                             z.data());
    }
}

void
LstmCell::finishStep(const Preacts &preacts, State &state) const
{
    REUSE_ASSERT(static_cast<int64_t>(state.c.size()) == cell_dim_ &&
                     static_cast<int64_t>(state.h.size()) == cell_dim_,
                 "LSTM state size mismatch");
    kernels::lstmTail({preacts[GateInput].data(),
                       preacts[GateForget].data(),
                       preacts[GateCell].data(),
                       preacts[GateOutput].data()},
                      cell_dim_, state.c.data(), state.h.data());
}

void
LstmCell::step(const float *x, State &state, Workspace &ws) const
{
    kernels::collectRows(x, input_dim_, ws.x_rows);
    kernels::collectRows(state.h.data(), cell_dim_, ws.h_rows);
    computePreacts(ws.x_rows, ws.h_rows, ws.preacts);
    finishStep(ws.preacts, state);
}

int64_t
LstmCell::paramCount() const
{
    int64_t total = 0;
    for (int g = 0; g < NumLstmGates; ++g) {
        total += wx_[static_cast<size_t>(g)]->paramCount();
        total += wh_[static_cast<size_t>(g)]->paramCount();
    }
    return total;
}

int64_t
LstmCell::macCountPerStep() const
{
    return NumLstmGates *
           (input_dim_ * cell_dim_ + cell_dim_ * cell_dim_);
}

LstmLayer::LstmLayer(std::string name, int64_t input_dim,
                     int64_t cell_dim)
    : Layer(std::move(name)),
      input_dim_(input_dim),
      cell_dim_(cell_dim),
      cell_(input_dim, cell_dim)
{
}

ShapeInference
LstmLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(
        ir::inferLstm(name(), input, input_dim_, cell_dim_));
}

Tensor
LstmLayer::forward(const Tensor &input) const
{
    (void)input;
    panic(name() + ": LSTM has no single-step forward(); use "
                   "forwardSequence()");
}

std::vector<Tensor>
LstmLayer::forwardSequence(const std::vector<Tensor> &inputs) const
{
    std::vector<Tensor> outputs;
    outputs.reserve(inputs.size());
    LstmCell::State state = cell_.initialState();
    LstmCell::Workspace ws;
    for (const Tensor &in : inputs) {
        REUSE_ASSERT(in.numel() == input_dim_,
                     name() << ": step input size mismatch");
        cell_.step(in.data().data(), state, ws);
        outputs.emplace_back(Shape({cell_dim_}), state.h);
    }
    return outputs;
}

int64_t
LstmLayer::paramCount() const
{
    return cell_.paramCount();
}

int64_t
LstmLayer::macCount(const Shape &input) const
{
    (void)input;
    return cell_.macCountPerStep();
}

BiLstmLayer::BiLstmLayer(std::string name, int64_t input_dim,
                         int64_t cell_dim)
    : Layer(std::move(name)),
      input_dim_(input_dim),
      cell_dim_(cell_dim),
      forward_cell_(input_dim, cell_dim),
      backward_cell_(input_dim, cell_dim)
{
}

ShapeInference
BiLstmLayer::inferOutputShape(const Shape &input) const
{
    return toShapeInference(
        ir::inferBiLstm(name(), input, input_dim_, cell_dim_));
}

Tensor
BiLstmLayer::forward(const Tensor &input) const
{
    (void)input;
    panic(name() + ": BiLSTM has no single-step forward(); use "
                   "forwardSequence()");
}

std::vector<Tensor>
BiLstmLayer::forwardSequence(const std::vector<Tensor> &inputs) const
{
    return forwardSequence(inputs, kernels::defaultDispatch());
}

std::vector<Tensor>
BiLstmLayer::forwardSequence(const std::vector<Tensor> &inputs,
                             const kernels::DeltaDispatch &dispatch) const
{
    const size_t t_len = inputs.size();
    for (size_t t = 0; t < t_len; ++t) {
        REUSE_ASSERT(inputs[t].numel() == input_dim_,
                     name() << ": step " << t << " input size mismatch");
    }
    std::vector<Tensor> outputs(t_len, Tensor(Shape({outputDim()})));
    // One direction over the sequence, writing h_t into its half of
    // each output (offset 0 forward, cell_dim backward).
    const auto run = [&](const LstmCell &cell, bool backward) {
        LstmCell::State state = cell.initialState();
        LstmCell::Workspace ws;
        const int64_t offset = backward ? cell_dim_ : 0;
        for (size_t k = 0; k < t_len; ++k) {
            const size_t t = backward ? t_len - 1 - k : k;
            cell.step(inputs[t].data().data(), state, ws);
            std::copy(state.h.begin(), state.h.end(),
                      outputs[t].data().begin() + offset);
        }
    };
    kernels::runPair(
        forward_cell_.macCountPerStep() * static_cast<int64_t>(t_len),
        [&] { run(forward_cell_, false); },
        [&] { run(backward_cell_, true); }, dispatch);
    return outputs;
}

int64_t
BiLstmLayer::paramCount() const
{
    return forward_cell_.paramCount() + backward_cell_.paramCount();
}

int64_t
BiLstmLayer::macCount(const Shape &input) const
{
    (void)input;
    // Per sequence element: both directions step once.
    return forward_cell_.macCountPerStep() +
           backward_cell_.macCountPerStep();
}

} // namespace reuse
