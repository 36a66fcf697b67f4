#include "model/model_graph.h"

#include "common/logging.h"

namespace tcsim::model {

namespace {

/** Round @p x up to a multiple of @p unit. */
int
pad_to(int x, int unit)
{
    return ((x + unit - 1) / unit) * unit;
}

/** FP16 operand bytes of a logical element count. */
uint64_t
elem_bytes(uint64_t elems)
{
    return elems * 2;
}

/** The running activation between layers. */
struct Activation
{
    bool image = false;
    // Sequence form.
    int width = 0;
    int rows_per_request = 1;
    // Image form.
    int channels = 0, height = 0, wpix = 0;
    // Name of the tensor holding it.
    std::string tensor;
};

class Lowering
{
  public:
    Lowering(const ModelGraph& g, int batch, const std::string& prefix)
        : g_(g), batch_(batch), prefix_(prefix)
    {
    }

    LoweredModel run();

  private:
    [[noreturn]] void fail(size_t layer, const std::string& msg) const;

    int add_tensor(const std::string& name, uint64_t bytes);
    void add_gemm(const std::string& name, const std::string& family,
                  int m, int n, int k, TcMode mode, size_t layer,
                  std::vector<std::string> reads,
                  std::vector<std::string> writes);

    std::string layer_name(size_t i) const;

    void lower_linear(size_t i, const LayerSpec& l, TcMode mode);
    void lower_conv2d(size_t i, const LayerSpec& l, TcMode mode);
    void lower_attention(size_t i, const LayerSpec& l, TcMode mode);
    void lower_elementwise(size_t i, const LayerSpec& l, TcMode mode);

    const ModelGraph& g_;
    const int batch_;
    const std::string prefix_;
    LoweredModel out_;
    Activation act_;
};

void
Lowering::fail(size_t layer, const std::string& msg) const
{
    throw ModelError(detail::format(
        "model \"%s\" layer %zu (%s): %s", g_.name.c_str(), layer,
        layer < g_.layers.size()
            ? layer_kind_name(g_.layers[layer].kind)
            : "?",
        msg.c_str()));
}

int
Lowering::add_tensor(const std::string& name, uint64_t bytes)
{
    out_.tensors.push_back({prefix_ + name, bytes});
    return static_cast<int>(out_.tensors.size()) - 1;
}

void
Lowering::add_gemm(const std::string& name, const std::string& family,
                   int m, int n, int k, TcMode mode, size_t layer,
                   std::vector<std::string> reads,
                   std::vector<std::string> writes)
{
    LoweredKernel lk;
    lk.name = prefix_ + name;
    lk.family = family;
    lk.m = m;
    lk.n = n;
    lk.k = k;
    lk.mode = mode;
    lk.layer = static_cast<int>(layer);
    lk.flops = 2.0 * m * n * k;
    lk.reads = std::move(reads);
    lk.writes = std::move(writes);
    for (std::string& t : lk.reads)
        t = prefix_ + t;
    for (std::string& t : lk.writes)
        t = prefix_ + t;
    out_.total_flops += lk.flops;
    out_.kernels.push_back(std::move(lk));
}

std::string
Lowering::layer_name(size_t i) const
{
    const LayerSpec& l = g_.layers[i];
    if (!l.name.empty())
        return l.name;
    return std::string(layer_kind_name(l.kind)) + std::to_string(i);
}

void
Lowering::lower_linear(size_t i, const LayerSpec& l, TcMode mode)
{
    int in;
    if (act_.image) {
        // Flatten the image: one row per request from here on.
        in = act_.channels * act_.height * act_.wpix;
        act_.image = false;
        act_.rows_per_request = 1;
    } else {
        in = act_.width;
    }
    if (l.in_features != 0 && l.in_features != in)
        fail(i, detail::format(
                    "in_features=%d does not match incoming activation "
                    "width %d",
                    l.in_features, in));
    if (l.out_features <= 0)
        fail(i, "out_features must be positive");

    const std::string name = layer_name(i);
    const int rows = batch_ * act_.rows_per_request;
    const int m = pad_to(rows, 64);
    const int n = pad_to(l.out_features, 64);
    const int k = pad_to(in, 64);
    add_tensor(name + ".w",
               elem_bytes(static_cast<uint64_t>(in) * l.out_features));
    const std::string outt = name + ".out";
    add_tensor(outt,
               elem_bytes(static_cast<uint64_t>(rows) * l.out_features));
    add_gemm(name, "wmma_shared", m, n, k, mode, i,
             {act_.tensor, name + ".w"}, {outt});
    out_.last_kernel_of_layer.push_back(
        static_cast<int>(out_.kernels.size()) - 1);
    act_.width = l.out_features;
    act_.tensor = outt;
}

void
Lowering::lower_conv2d(size_t i, const LayerSpec& l, TcMode mode)
{
    if (!act_.image)
        fail(i, "conv2d requires an image activation (a conv2d stack "
                "must come before any linear/attention layer)");
    if (l.in_channels != 0 && l.in_channels != act_.channels)
        fail(i, detail::format(
                    "in_channels=%d does not match incoming activation "
                    "channels %d",
                    l.in_channels, act_.channels));
    if ((l.height != 0 && l.height != act_.height) ||
        (l.width != 0 && l.width != act_.wpix))
        fail(i, detail::format(
                    "height/width %dx%d do not match incoming "
                    "activation %dx%d",
                    l.height, l.width, act_.height, act_.wpix));
    if (l.out_channels <= 0)
        fail(i, "out_channels must be positive");
    if (l.kernel <= 0 || l.stride <= 0)
        fail(i, "kernel and stride must be positive");
    if (l.kernel > act_.height || l.kernel > act_.wpix)
        fail(i, detail::format("kernel %d exceeds activation %dx%d",
                               l.kernel, act_.height, act_.wpix));

    const int oh = (act_.height - l.kernel) / l.stride + 1;
    const int ow = (act_.wpix - l.kernel) / l.stride + 1;
    const int ic = act_.channels;
    const std::string name = layer_name(i);
    // im2col: [batch*oh*ow x ic*kh*kw] * [ic*kh*kw x oc].
    const int m = pad_to(batch_ * oh * ow, 64);
    const int n = pad_to(l.out_channels, 64);
    const int k = pad_to(ic * l.kernel * l.kernel, 16);
    add_tensor(name + ".w",
               elem_bytes(static_cast<uint64_t>(l.out_channels) * ic *
                          l.kernel * l.kernel));
    const std::string outt = name + ".out";
    add_tensor(outt, elem_bytes(static_cast<uint64_t>(batch_) *
                                l.out_channels * oh * ow));
    add_gemm(name, "wmma_shared", m, n, k, mode, i,
             {act_.tensor, name + ".w"}, {outt});
    out_.last_kernel_of_layer.push_back(
        static_cast<int>(out_.kernels.size()) - 1);
    act_.channels = l.out_channels;
    act_.height = oh;
    act_.wpix = ow;
    act_.tensor = outt;
}

void
Lowering::lower_attention(size_t i, const LayerSpec& l, TcMode mode)
{
    if (act_.image)
        fail(i, "attention requires a sequence activation (flatten "
                "through a linear layer first)");
    const int embed = l.embed_dim != 0 ? l.embed_dim : act_.width;
    if (embed != act_.width)
        fail(i, detail::format(
                    "embed_dim=%d does not match incoming activation "
                    "width %d",
                    embed, act_.width));
    if (l.heads <= 0 || embed % l.heads != 0)
        fail(i, detail::format("heads=%d must divide embed_dim=%d",
                               l.heads, embed));

    const std::string name = layer_name(i);
    const int tokens = act_.rows_per_request;
    const int rows = batch_ * tokens;
    const int m = pad_to(rows, 64);
    const int ke = pad_to(embed, 64);
    const int kt = pad_to(tokens, 64);

    add_tensor(name + ".wqkv",
               elem_bytes(static_cast<uint64_t>(embed) * 3 * embed));
    add_tensor(name + ".qkv",
               elem_bytes(static_cast<uint64_t>(rows) * 3 * embed));
    add_tensor(name + ".s",
               elem_bytes(static_cast<uint64_t>(rows) * tokens));
    add_tensor(name + ".ctx",
               elem_bytes(static_cast<uint64_t>(rows) * embed));
    add_tensor(name + ".wproj",
               elem_bytes(static_cast<uint64_t>(embed) * embed));
    const std::string outt = name + ".out";
    add_tensor(outt, elem_bytes(static_cast<uint64_t>(rows) * embed));

    // Four GEMMs; scores/context fold the per-head batch into one
    // launch so flops match 2 * batch * heads * t^2 * head_dim.
    add_gemm(name + ".qkv", "wmma_shared", m, pad_to(3 * embed, 64), ke,
             mode, i, {act_.tensor, name + ".wqkv"}, {name + ".qkv"});
    add_gemm(name + ".scores", "wmma_shared", m, kt, ke, mode, i,
             {name + ".qkv"}, {name + ".s"});
    add_gemm(name + ".ctx", "wmma_shared", m, ke, kt, mode, i,
             {name + ".s", name + ".qkv"}, {name + ".ctx"});
    add_gemm(name + ".proj", "wmma_shared", m, ke, ke, mode, i,
             {name + ".ctx", name + ".wproj"}, {outt});
    out_.last_kernel_of_layer.push_back(
        static_cast<int>(out_.kernels.size()) - 1);
    act_.tensor = outt;
}

void
Lowering::lower_elementwise(size_t i, const LayerSpec& l, TcMode mode)
{
    (void)l;
    const int width =
        act_.image ? act_.channels * act_.height * act_.wpix : act_.width;
    const int rows =
        act_.image ? batch_ : batch_ * act_.rows_per_request;
    const std::string name = layer_name(i);
    const std::string outt = name + ".out";
    add_tensor(outt, elem_bytes(static_cast<uint64_t>(rows) * width));
    // Thin k=16 naive-WMMA launch: a bandwidth-bound proxy that reads
    // the whole activation once and writes it once.
    add_gemm(name, "wmma_naive", pad_to(rows, 16), pad_to(width, 16), 16,
             mode, i, {act_.tensor}, {outt});
    out_.last_kernel_of_layer.push_back(
        static_cast<int>(out_.kernels.size()) - 1);
    act_.tensor = outt;
}

LoweredModel
Lowering::run()
{
    if (batch_ < 1)
        throw ModelError(detail::format(
            "model \"%s\": batch must be >= 1 (got %d)", g_.name.c_str(),
            batch_));
    if (g_.layers.empty())
        throw ModelError(detail::format(
            "model \"%s\": at least one layer is required",
            g_.name.c_str()));
    if (g_.tokens_per_request < 1)
        throw ModelError(detail::format(
            "model \"%s\": tokens_per_request must be >= 1 (got %d)",
            g_.name.c_str(), g_.tokens_per_request));

    // Establish the input activation.
    if (g_.layers[0].kind == LayerKind::kConv2d) {
        const LayerSpec& first = g_.layers[0];
        if (first.in_channels <= 0 || first.height <= 0 ||
            first.width <= 0)
            fail(0, "the first conv2d must declare in_channels, height "
                    "and width");
        act_.image = true;
        act_.channels = first.in_channels;
        act_.height = first.height;
        act_.wpix = first.width;
        // Unprefixed like every other act_.tensor: add_gemm prefixes
        // read/write sets when it materializes them.
        act_.tensor = "in";
        add_tensor("in", elem_bytes(static_cast<uint64_t>(batch_) *
                                    first.in_channels * first.height *
                                    first.width));
    } else {
        if (g_.input_features <= 0)
            throw ModelError(detail::format(
                "model \"%s\": input_features must be positive for "
                "sequence models",
                g_.name.c_str()));
        act_.width = g_.input_features;
        act_.rows_per_request = g_.tokens_per_request;
        act_.tensor = "in";
        add_tensor("in",
                   elem_bytes(static_cast<uint64_t>(batch_) *
                              g_.tokens_per_request * g_.input_features));
    }

    for (size_t i = 0; i < g_.layers.size(); ++i) {
        const LayerSpec& l = g_.layers[i];
        const TcMode mode = l.has_precision ? l.precision : g_.precision;
        if (mode != TcMode::kFp16 && mode != TcMode::kMixed)
            fail(i, "model layers lower to GEMM launches, which support "
                    "fp16/mixed precision only");
        switch (l.kind) {
          case LayerKind::kLinear:
            lower_linear(i, l, mode);
            break;
          case LayerKind::kConv2d:
            lower_conv2d(i, l, mode);
            break;
          case LayerKind::kAttention:
            lower_attention(i, l, mode);
            break;
          case LayerKind::kElementwise:
            lower_elementwise(i, l, mode);
            break;
        }
    }
    return std::move(out_);
}

}  // namespace

const char*
layer_kind_name(LayerKind kind)
{
    switch (kind) {
      case LayerKind::kLinear:      return "linear";
      case LayerKind::kConv2d:      return "conv2d";
      case LayerKind::kAttention:   return "attention";
      case LayerKind::kElementwise: return "elementwise";
    }
    return "?";
}

LoweredModel
lower_model(const ModelGraph& graph, int batch_requests,
            const std::string& prefix)
{
    return Lowering(graph, batch_requests, prefix).run();
}

}  // namespace tcsim::model
