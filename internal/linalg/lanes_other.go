//go:build !amd64

package linalg

// Off amd64 there are no lane kernels: the scalar loops are the only path,
// and these stubs are never reached.

var lanesOn, haveLanes, haveLink = false, false, false

func axpyLanes(a float64, x, y []float64) { panic(noLanes) }

func addRowsLanes(y []float64, c *[4]float64, rows *[4][]float64, m int) { panic(noLanes) }

func givensLanes(x, y []float64, c, s float64) { panic(noLanes) }

func rankTwoLanes(row, d, e []float64, ek, dk float64) { panic(noLanes) }

func scoresLanes(z, x, t []float64) { panic(noLanes) }

func logisticLinkLanes(z, y, loss, coef []float64) int { panic(noLanes) }

const noLanes = "linalg: no lane kernels on this architecture"
