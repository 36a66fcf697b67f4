/**
 * @file
 * Declarative model-layer graph IR and its lowering to kernel-registry
 * launches.
 *
 * A ModelGraph describes a DL inference model the way a framework
 * would — an ordered list of layers (linear / conv2d / attention /
 * elementwise) with shapes and precision — instead of a hand-written
 * kernel list.  lower_model() expands each layer into one or more
 * GEMM-shaped launches with named activation/weight tensors and
 * read/write sets.  A model scenario feeds them to the task-graph
 * compiler (sim/graph/task_graph), so its streams and events are
 * derived from data hazards, never authored.  Every layer kind lowers
 * to a chain (each launch reads its predecessor's output), so the
 * serving engine enqueues a lowered batch in declaration order on one
 * stream.
 *
 * The lowering is deliberately coarse: every layer becomes a dense
 * GEMM sized by the standard im2col/flattening identities, padded up
 * to the wmma_shared tile grid (m,n % 64, k % 16).  That is exactly
 * the granularity the underlying simulator models (the paper times
 * tensor-core GEMMs, not elementwise ALU work), and it keeps the
 * frontend free of per-kernel special cases:
 *
 *  - linear      -> one GEMM  [rows x in] * [in x out]
 *  - conv2d      -> one im2col GEMM  [batch*oh*ow x ic*kh*kw] * [.. x oc]
 *  - attention   -> four GEMMs (qkv projection, scores QK^T, context
 *                   S*V, output projection), scored across all heads
 *                   at once so flops match batch*heads*t^2*head_dim
 *  - elementwise -> one thin k=16 wmma_naive launch (bandwidth-bound
 *                   proxy: reads and rewrites the activation)
 *
 * `rows` is batch * tokens_per_request for sequence activations and
 * batch * 1 once an image has been flattened through a linear layer.
 * Activation tensors are auto-named ("<layer>.out") and chained
 * implicitly; the optional @p prefix namespaces a whole lowered
 * instance so the serving engine can keep many batches in flight on
 * one Gpu without tensor-name collisions.
 */
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "arch/gpu_config.h"

namespace tcsim::model {

/** Invalid graph (bad shapes, mismatched chaining, ...). */
class ModelError : public std::runtime_error
{
  public:
    explicit ModelError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

enum class LayerKind { kLinear, kConv2d, kAttention, kElementwise };

/** Scenario-facing name of a layer kind ("linear", ...). */
const char* layer_kind_name(LayerKind kind);

/** One layer.  Only the fields of the layer's kind are consulted. */
struct LayerSpec
{
    LayerKind kind = LayerKind::kLinear;
    /** Optional; defaults to "<kind><index>". */
    std::string name;

    // linear
    int in_features = 0;  ///< 0 = infer from the incoming activation.
    int out_features = 0;

    // conv2d
    int in_channels = 0;
    int out_channels = 0;
    int kernel = 3;
    int stride = 1;
    /** Input image dims; required on the first conv, inferred (and
     *  checked when nonzero) afterwards. */
    int height = 0;
    int width = 0;

    // attention
    int embed_dim = 0;  ///< 0 = infer from the incoming activation.
    int heads = 1;

    /** Per-layer precision override (graph precision when unset). */
    bool has_precision = false;
    TcMode precision = TcMode::kMixed;
};

/** A declarative model: ordered layers plus graph-wide attributes. */
struct ModelGraph
{
    std::string name = "model";
    /** Sequence length each request contributes to GEMM rows. */
    int tokens_per_request = 64;
    /** Width of the model input for sequence models; ignored (may be
     *  0) when the first layer is conv2d. */
    int input_features = 0;
    TcMode precision = TcMode::kMixed;
    std::vector<LayerSpec> layers;
};

/** A named tensor the lowered kernels read/write (hazard metadata). */
struct LoweredTensor
{
    std::string name;
    uint64_t bytes = 0;
};

/** One kernel-registry launch produced by lowering. */
struct LoweredKernel
{
    std::string name;
    std::string family;  ///< Kernel-registry name ("wmma_shared", ...).
    int m = 0, n = 0, k = 0;
    TcMode mode = TcMode::kMixed;
    int layer = 0;  ///< Index into ModelGraph::layers.
    double flops = 0;
    std::vector<std::string> reads;
    std::vector<std::string> writes;
};

/** The lowering result: tensors + launches in execution order. */
struct LoweredModel
{
    std::vector<LoweredTensor> tensors;
    std::vector<LoweredKernel> kernels;
    /** kernels[] index of each layer's final launch (the layer
     *  boundary the serving engine hooks for continuous batching). */
    std::vector<int> last_kernel_of_layer;
    double total_flops = 0;
};

/**
 * Expand @p graph for a forward pass over @p batch_requests requests.
 * Every tensor and kernel name is prepended with @p prefix.  Throws
 * ModelError on invalid or inconsistently chained layers.
 */
LoweredModel lower_model(const ModelGraph& graph, int batch_requests,
                         const std::string& prefix = {});

}  // namespace tcsim::model
