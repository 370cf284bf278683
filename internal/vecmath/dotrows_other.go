//go:build !amd64

package vecmath

// useKernel: there is no assembly kernel off amd64.
var useKernel = false

// dotRowsKernel does no rows: off amd64, DotRows is the four-row loop.
func dotRowsKernel(q, rows []float32, dim int, out []float32) int { return 0 }
