#pragma once
/**
 * @file
 * Verbatim measurements published in the paper (PAPER.md), used as
 * hardware ground truth by the benchmark harness because no physical
 * Titan V is available to measure.  Cumulative HMMA cycle tables live
 * in sass/hmma_timing.h; this file holds the remaining figures.
 */

#include <vector>

namespace tcsim {
namespace hwref {

/** Fig 15: minimum observed latencies (cycles) of the WMMA PTX
 *  operations on the Titan V (1024^2 shared-memory GEMM). */
inline constexpr int kMinWmmaLoadLatency = 125;
inline constexpr int kMinWmmaStoreLatency = 120;
inline constexpr int kMinWmmaMmaLatency = 70;

/** Section V-C: measured peak tensor-core throughput (TFLOPS). */
inline constexpr double kMaxPerfFp16Tflops = 109.6;
inline constexpr double kMaxPerfMixedTflops = 108.7;
inline constexpr double kPeakTensorTflops = 125.0;
/** Best GEMM kernel observed: 8192^2 FP16 cuBLAS. */
inline constexpr double kBestGemmTflops = 96.0;

/**
 * Fig 12c (digitized): cycles to execute parallel HMMA operations
 * versus warps per CTA on one SM.  Flat while each warp owns a
 * tensor-core pair (<= 4 warps = 4 sub-cores), then rising as pairs
 * serialize.
 */
std::vector<double> fig12c_hw_cycles();

/**
 * Fig 17 (digitized): hardware TFLOPS per kernel family across
 * square sizes {256, 512, 1024, 2048, 4096, 8192, 16384}.
 */
struct Fig17Series
{
    const char* name;
    std::vector<double> tflops;
};

std::vector<double> fig17_sizes();
std::vector<Fig17Series> fig17_hw_series();

}  // namespace hwref
}  // namespace tcsim
