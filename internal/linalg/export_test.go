package linalg

// SetLanes turns the lane kernels on (where the CPU has them) or off, for
// tests that compare the two paths, and returns a func restoring the
// previous setting.
func SetLanes(on bool) (restore func()) {
	prev := lanesOn
	lanesOn = on && haveLanes
	return func() { lanesOn = prev }
}
