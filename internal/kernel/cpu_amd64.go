//go:build !race && amd64

package kernel

import (
	"os"
	"strings"
)

// cpuid and xgetbv0 are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 says whether the CPU and OS support AVX2: the AVX/OSXSAVE feature
// bits in CPUID.1:ECX, XMM+YMM state enabled in XCR0, and the AVX2 bit in
// CPUID.7:EBX. hasAVX512 says whether they also support AVX-512 Foundation:
// its bit in CPUID.7:EBX, and the opmask and both halves of the ZMM state
// enabled in XCR0, so the kernel saves Z0–Z31 and K0–K7 on a signal. hasFMA
// says whether they also have FMA, the CPUID.1:ECX bit math.Exp's fused path
// is chosen by. GODEBUG's cpu.avx2 and cpu.avx512f switch the first two off
// for this package as they do for the runtime (godebugCPU). No library
// dependency — the module vendors nothing.
var hasAVX2, hasAVX512, hasFMA = cpuFeatures()

func cpuFeatures() (avx2, avx512, fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled; AVX-512 also
	// needs bits 5 (opmask), 6 (ZMM0–15's upper halves) and 7 (ZMM16–31).
	const (
		ymmState   = 1<<1 | 1<<2
		zmmState   = ymmState | 1<<5 | 1<<6 | 1<<7
		avx2Bit    = 1 << 5
		avx512FBit = 1 << 16
	)
	xlo, _ := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	on2, on512 := godebugCPU(os.Getenv("GODEBUG"))
	avx2 = on2 && xlo&ymmState == ymmState && ebx7&avx2Bit != 0
	return avx2, avx2 && on512 && xlo&zmmState == zmmState && ebx7&avx512FBit != 0, avx2 && ecx1&fmaBit != 0
}

// godebugCPU reads GODEBUG's cpu.avx2, cpu.avx512f and cpu.all settings as
// Go's runtime reads its own (internal/cpu.processOptions): comma-separated
// cpu.<name>=on|off, any other value ignored, a later setting over an earlier
// one. So one binary runs the 512-bit bodies, the AVX2 ones or the scalar
// table. "on" cannot add what CPUID lacks. cpu.fma is left to ExpRow's
// probe, since math.Exp follows it: its bodies stay offered, are refused,
// and Impl names the fallback.
func godebugCPU(env string) (avx2, avx512 bool) {
	avx2, avx512 = true, true
	for _, f := range strings.Split(env, ",") {
		key, value, _ := strings.Cut(f, "=")
		if value != "on" && value != "off" {
			continue
		}
		on := value == "on"
		switch key {
		case "cpu.all":
			avx2, avx512 = on, on
		case "cpu.avx2":
			avx2 = on
		case "cpu.avx512f":
			avx512 = on
		}
	}
	return avx2, avx512
}
