package vecmath

// useKernel is whether DotRows hands its rows to the AVX kernel: the
// CPU has AVX and the OS saves the YMM registers. Tests switch it off to
// check the portable four-row loop on the same host.
var useKernel = cpuidAVX()

// dotRowsKernel runs dotRowsAVX over the leading multiple of eight rows
// and returns how many rows it wrote: none when the kernel is off or dim
// is not a multiple of four.
func dotRowsKernel(q, rows []float32, dim int, out []float32) int {
	n := len(out) &^ 7
	if !useKernel || dim%4 != 0 || n == 0 {
		return 0
	}
	dotRowsAVX(q, rows[:n*dim], out[:n])
	return n
}

// dotRowsAVX writes out[i] = Dot(q, row i), bit for bit, eight rows to a
// YMM register (dotrows_amd64.s). len(q) must be a positive multiple of
// four, len(out) a multiple of eight and len(rows) len(out)*len(q).
//
//go:noescape
func dotRowsAVX(q, rows, out []float32)

// cpuidAVX reports whether the CPU and OS support AVX.
func cpuidAVX() bool
