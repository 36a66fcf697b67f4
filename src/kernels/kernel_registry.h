#pragma once
/**
 * @file
 * Name-based lookup of the GEMM kernel zoo, so data-driven frontends
 * (the scenario driver, future trace replayers) can select a kernel
 * builder without compiling against each maker function.
 */

#include <string>
#include <vector>

#include "kernels/gemm_kernels.h"
#include "sim/kernel_desc.h"

namespace tcsim {

class GlobalMemory;

/** The kernel builders the registry can instantiate. */
enum class KernelFamily {
    kWmmaNaive,   ///< make_wmma_gemm_naive
    kWmmaShared,  ///< make_wmma_gemm_shared
    kSgemmFfma,   ///< make_sgemm_ffma
    kHgemmHfma2,  ///< make_hgemm_hfma2
    kHmmaStress,  ///< make_hmma_stress (no operand buffers)
};

/** Registry entry: stable scenario-facing name plus family traits. */
struct KernelFamilyInfo
{
    KernelFamily family;
    const char* name;
    /** GEMM-shaped family: takes m/n/k, layouts, and operand buffers.
     *  When false (hmma_stress) it takes ctas/warps/wmma_per_warp. */
    bool is_gemm;
    /** Family honours KernelDesc::functional (moves real data, so
     *  D = A x B + C can be verified).  The SIMT baselines and
     *  hmma_stress are timing-only. */
    bool supports_functional;
    /** Bytes per A/B operand element in device memory. */
    int ab_elem_bytes;
    /** Bytes per C/D element (for mode-independent families). */
    int cd_elem_bytes;
};

/** All registered families, in a stable order. */
const std::vector<KernelFamilyInfo>& kernel_families();

/** Lookup by scenario name ("wmma_shared", ...); nullptr if unknown. */
const KernelFamilyInfo* find_kernel_family(const std::string& name);

/** Comma-separated family names for error messages. */
std::string kernel_family_names();

/**
 * Build a GEMM-shaped kernel of @p family.  @p warps_per_cta is only
 * honoured by kWmmaNaive (the other families fix their CTA shape).
 */
KernelDesc build_gemm_kernel(KernelFamily family,
                             const GemmKernelConfig& cfg,
                             const GemmBuffers& buf, int warps_per_cta);

/**
 * Timing-only operands for an @p m x @p n x @p k GEMM of @p info's
 * family: bare allocations, in A, B, C, D order, that give the kernel
 * valid, distinct address ranges without host data.  Element widths
 * come from the registry so the ranges cover exactly what the builder
 * addresses (sgemm_ffma addresses FP32 operands); only the WMMA
 * families narrow C/D to FP16 under TcMode::kFp16.
 */
GemmBuffers alloc_timing_operands(const KernelFamilyInfo& info, TcMode mode,
                                  int m, int n, int k, GlobalMemory* mem);

/** FLOPs of one D = A x B + C GEMM (2*m*n*k). */
double gemm_flops(int m, int n, int k);

/** FLOPs of one hmma_stress launch (per-tile 2*16*16*16 MACs). */
double hmma_stress_flops(int ctas, int warps_per_cta, int wmma_per_warp);

}  // namespace tcsim
