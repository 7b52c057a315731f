/**
 * @file
 * Per-layer execution records produced by the reuse engine.
 *
 * A record captures exactly what one execution of one layer did:
 * how many inputs were checked, how many had changed, and how many
 * MACs were actually performed versus what a from-scratch execution
 * would have needed.  The accelerator simulator (src/sim) converts
 * these records into cycles and memory events, so the timing/energy
 * model is driven by *measured* similarity, never by assumptions.
 */

#ifndef REUSE_DNN_CORE_EXEC_RECORD_H
#define REUSE_DNN_CORE_EXEC_RECORD_H

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace reuse {

/** What one execution of one layer did. */
struct LayerExecRecord {
    /** Index of the layer within the network. */
    size_t layerIndex = 0;
    /** Concrete layer type. */
    LayerKind kind = LayerKind::Activation;
    /** True when input quantization / reuse applies to this layer. */
    bool reuseEnabled = false;
    /**
     * True when the layer executed from scratch because there was no
     * buffered previous execution (first frame of a stream, sequence
     * start, or a periodic refresh).
     */
    bool firstExecution = false;
    /**
     * True when this from-scratch execution was forced by the drift
     * guard (accumulated-delta bound or frame-count budget exceeded),
     * as opposed to a stream's natural first frame.
     */
    bool driftRefresh = false;
    /** Inputs quantized and compared against the previous indices. */
    int64_t inputsChecked = 0;
    /** Inputs whose quantized index differed (corrections needed). */
    int64_t inputsChanged = 0;
    /**
     * Inputs whose quantized index moved but stayed within the
     * layer's cluster radius, so the buffered representative was
     * kept instead of emitting a correction (near-match reuse).
     * Zero when the layer runs at radius 0 (exact matching).
     */
    int64_t inputsNearMatched = 0;
    /**
     * Drift-estimate contribution of this execution's near-matches:
     * each suppressed change leaves up to radius quantization steps
     * of input error standing, expressed here relative to the
     * quantizer range so the DriftGuard can fold it into the same
     * accumulated relative-error budget as fp32 rounding.
     */
    double nearMatchDrift = 0.0;
    /** Total inputs consumed by the layer this execution. */
    int64_t inputsTotal = 0;
    /** Output neurons produced. */
    int64_t outputsTotal = 0;
    /** MACs a from-scratch execution would perform. */
    int64_t macsFull = 0;
    /** MACs actually performed (full or corrections). */
    int64_t macsPerformed = 0;
    /**
     * Sequence steps aggregated into this record: 1 for feed-forward
     * layers, the sequence length for recurrent layers.
     */
    int64_t steps = 1;
    /**
     * Kernel edge length for convolutional layers (drives the halo
     * overhead of blocked DRAM streaming); 1 elsewhere.
     */
    int64_t kernelExtent = 1;

    /**
     * Folds one step's record into this aggregate: sums every counter
     * and takes the step's kind, kernel extent and reuse flag.  The
     * caller owns layerIndex, steps, firstExecution and driftRefresh.
     */
    void accumulate(const LayerExecRecord &step)
    {
        kind = step.kind;
        reuseEnabled = reuseEnabled || step.reuseEnabled;
        kernelExtent = step.kernelExtent;
        inputsChecked += step.inputsChecked;
        inputsChanged += step.inputsChanged;
        inputsNearMatched += step.inputsNearMatched;
        nearMatchDrift += step.nearMatchDrift;
        inputsTotal += step.inputsTotal;
        outputsTotal += step.outputsTotal;
        macsFull += step.macsFull;
        macsPerformed += step.macsPerformed;
    }

    /** Fraction of checked inputs that were unchanged. */
    double similarity() const
    {
        return inputsChecked == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(inputsChanged) /
                               static_cast<double>(inputsChecked);
    }

    /** Fraction of full MACs avoided this execution. */
    double reuseFraction() const
    {
        return macsFull == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(macsPerformed) /
                               static_cast<double>(macsFull);
    }
};

/** Records of one whole-network execution, one entry per layer. */
using ExecutionTrace = std::vector<LayerExecRecord>;

} // namespace reuse

#endif // REUSE_DNN_CORE_EXEC_RECORD_H
