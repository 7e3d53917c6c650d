// Scalar-width kernel tier (TPSTREAM_SIMD=off): the generic kernels at
// one 64-bit lane per vector, so `off` runs the same SoA executor and
// the same kernel bodies as the wider tiers. No extra -m flags, so the
// TU is safe to execute on any supported CPU.
#define TPS_SIMD_VB 8
#define TPS_SIMD_TABLE_FN KernelsOff
#include "expr/simd_kernels.inc"
