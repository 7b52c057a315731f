#include "reuse_state.h"

#include <algorithm>

#include "common/checksum.h"

namespace reuse {

ReuseState
ReuseState::clone() const
{
    ReuseState copy;
    copy.layers_.reserve(layers_.size());
    for (const auto &s : layers_)
        copy.layers_.push_back(s ? s->clone() : nullptr);
    copy.executions_since_refresh_ = executions_since_refresh_;
    copy.accumulated_drift_ = accumulated_drift_;
    return copy;
}

void
ReuseState::reset()
{
    for (auto &s : layers_) {
        if (s)
            s->reset();
    }
    executions_since_refresh_ = 0;
    std::fill(accumulated_drift_.begin(), accumulated_drift_.end(),
              0.0);
}

void
ReuseState::releaseBuffers()
{
    for (auto &s : layers_) {
        if (s)
            s->releaseBuffers();
    }
    executions_since_refresh_ = 0;
    std::fill(accumulated_drift_.begin(), accumulated_drift_.end(),
              0.0);
}

int64_t
ReuseState::memoryBytes() const
{
    int64_t bytes = 0;
    for (const auto &s : layers_) {
        if (s)
            bytes += s->memoryBytes();
    }
    return bytes;
}

uint64_t
ReuseState::checksum() const
{
    uint64_t h = checksumInit();
    checksumValue(h, executions_since_refresh_);
    for (size_t li = 0; li < layers_.size(); ++li) {
        // The layer index keeps equal buffer contents at different
        // positions from colliding.
        if (layers_[li]) {
            checksumValue(h, li);
            layers_[li]->hashInto(h);
        }
    }
    return h;
}

bool
ReuseState::debugCorruptBuffer(uint64_t seed)
{
#if REUSE_FAULT_INJECTION
    for (auto &s : layers_) {
        if (s && s->hasPrev())
            return s->debugCorruptBuffer(seed);
    }
#else
    (void)seed;
#endif
    return false;
}

bool
ReuseState::warm() const
{
    for (const auto &s : layers_) {
        if (s && s->hasPrev())
            return true;
    }
    return executions_since_refresh_ > 0;
}

} // namespace reuse
