#include "reuse_step_state.h"

#include <cstring>

#include "common/logging.h"

namespace reuse {

Tensor
ReuseStepState::execute(const Tensor &, LayerExecRecord &)
{
    panic("recurrent reuse state runs whole sequences: use "
          "executeSequence()");
}

std::vector<Tensor>
ReuseStepState::executeSequence(const std::vector<Tensor> &inputs,
                                LayerExecRecord &rec)
{
    std::vector<Tensor> outputs;
    outputs.reserve(inputs.size());
    LayerExecRecord step_rec;
    for (const Tensor &in : inputs) {
        step_rec = LayerExecRecord{};
        outputs.push_back(execute(in, step_rec));
        rec.accumulate(step_rec);
    }
    rec.steps = static_cast<int64_t>(inputs.size());
    // Like the recurrent states, a multi-step record counts as a
    // steady-state one; its from-scratch share shows in macsPerformed.
    rec.firstExecution = inputs.size() == 1 && step_rec.firstExecution;
    return outputs;
}

bool
flipMantissaBit(AlignedVector<float> &buf, uint64_t seed)
{
    if (buf.empty())
        return false;
    const size_t victim = seed % buf.size();
    const uint32_t bit = static_cast<uint32_t>((seed >> 16) % 23);
    uint32_t raw = 0;
    std::memcpy(&raw, &buf[victim], sizeof(raw));
    raw ^= (1u << bit);
    std::memcpy(&buf[victim], &raw, sizeof(raw));
    return true;
}

} // namespace reuse
