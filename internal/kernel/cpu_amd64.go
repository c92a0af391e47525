//go:build !race && amd64

package kernel

// cpuid and xgetbv0 are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether the CPU and OS support AVX2: the AVX/OSXSAVE
// feature bits in CPUID.1:ECX, XMM+YMM state enabled in XCR0, and the AVX2
// bit in CPUID.7:EBX. No library dependency — the module vendors nothing.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xlo, _ := xgetbv0()
	if xlo&6 != 6 {
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2Bit != 0
}
