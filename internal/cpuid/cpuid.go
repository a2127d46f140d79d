// Package cpuid decides, once at start-up, whether the scan and
// partition kernels of column and core take their AVX2 forms. Every
// other CPU and architecture runs their Go loops, which are also the
// tests' reference.
package cpuid

// AVX2 is true on an amd64 CPU that reports AVX2 and POPCNT and whose
// operating system saves the YMM registers across context switches
// (CPUID leaves 1 and 7, then XGETBV).
var AVX2 = hasAVX2()
