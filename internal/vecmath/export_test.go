package vecmath

// dotPaths calls f once per DotRows path this host runs — the AVX
// kernel where the CPU has it, then the portable four-row loop with the
// kernel switched off — naming the path, and restores the switch.
func dotPaths(f func(path string)) {
	saved := useKernel
	defer func() { useKernel = saved }()
	if saved {
		f("avx kernel")
	}
	useKernel = false
	f("go loop")
}
