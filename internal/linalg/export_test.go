package linalg

// HaveLanes reports whether this CPU has the lane kernels, for the tests in
// package linalg_test that compare a run with them against one without.
func HaveLanes() bool { return haveLanes }
