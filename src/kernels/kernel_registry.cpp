#include "kernels/kernel_registry.h"

#include "common/logging.h"
#include "sim/mem/global_memory.h"

namespace tcsim {

const std::vector<KernelFamilyInfo>&
kernel_families()
{
    // ab/cd element sizes mirror the builders' device addressing:
    // WMMA kernels read FP16 operands (C/D width tracks TcMode, so
    // cd_elem_bytes holds the widest case); sgemm_ffma is all-FP32;
    // hgemm_hfma2 is packed FP16 end to end.
    static const std::vector<KernelFamilyInfo> families = {
        {KernelFamily::kWmmaNaive, "wmma_naive", true, true, 2, 4},
        {KernelFamily::kWmmaShared, "wmma_shared", true, true, 2, 4},
        {KernelFamily::kSgemmFfma, "sgemm_ffma", true, false, 4, 4},
        {KernelFamily::kHgemmHfma2, "hgemm_hfma2", true, false, 2, 2},
        {KernelFamily::kHmmaStress, "hmma_stress", false, false, 2, 4},
    };
    return families;
}

const KernelFamilyInfo*
find_kernel_family(const std::string& name)
{
    for (const KernelFamilyInfo& info : kernel_families())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::string
kernel_family_names()
{
    std::string out;
    for (const KernelFamilyInfo& info : kernel_families()) {
        if (!out.empty())
            out += ", ";
        out += info.name;
    }
    return out;
}

KernelDesc
build_gemm_kernel(KernelFamily family, const GemmKernelConfig& cfg,
                  const GemmBuffers& buf, int warps_per_cta)
{
    switch (family) {
      case KernelFamily::kWmmaNaive:
        return make_wmma_gemm_naive(cfg, buf, warps_per_cta);
      case KernelFamily::kWmmaShared: return make_wmma_gemm_shared(cfg, buf);
      case KernelFamily::kSgemmFfma: return make_sgemm_ffma(cfg, buf);
      case KernelFamily::kHgemmHfma2: return make_hgemm_hfma2(cfg, buf);
      case KernelFamily::kHmmaStress: break;
    }
    panic("build_gemm_kernel: family is not GEMM-shaped");
}

GemmBuffers
alloc_timing_operands(const KernelFamilyInfo& info, TcMode mode, int m, int n,
                      int k, GlobalMemory* mem)
{
    const uint64_t ab = static_cast<uint64_t>(info.ab_elem_bytes);
    uint64_t cd = static_cast<uint64_t>(info.cd_elem_bytes);
    if (info.supports_functional && mode == TcMode::kFp16)
        cd = 2;
    GemmBuffers buf;
    buf.a = mem->alloc(static_cast<uint64_t>(m) * k * ab);
    buf.b = mem->alloc(static_cast<uint64_t>(k) * n * ab);
    buf.c = mem->alloc(static_cast<uint64_t>(m) * n * cd);
    buf.d = mem->alloc(static_cast<uint64_t>(m) * n * cd);
    return buf;
}

double
gemm_flops(int m, int n, int k)
{
    return 2.0 * m * n * k;
}

double
hmma_stress_flops(int ctas, int warps_per_cta, int wmma_per_warp)
{
    return 2.0 * 16 * 16 * 16 * static_cast<double>(ctas) * warps_per_cta *
           wmma_per_warp;
}

}  // namespace tcsim
