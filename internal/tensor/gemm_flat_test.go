package tensor

// GemmFlat is the reference kernel (flat row loop, one k step and one C row
// at a time): the oracle of the bit-identity tests and the microbenchmark
// baseline.
func GemmFlat(alpha float32, a, b *Dense, beta float32, c *Dense) {
	checkGemmShapes(a.Rows, a.Cols, b.Rows, b.Cols, c, "GemmFlat")
	if a.IsPhantom() || b.IsPhantom() || c.IsPhantom() {
		return
	}
	applyBeta(c, beta)
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		rc := c.Row(i)
		ra := a.Row(i)
		for p := 0; p < k; p++ {
			s := alpha * ra[p]
			rb := b.Row(p)
			for j, bv := range rb {
				rc[j] += s * bv
			}
		}
	}
}
