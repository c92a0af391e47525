package schedcheck

import (
	"sort"

	"mggcn/internal/sim"
)

// CheckShapes is the shape-flow typing pass: it propagates symbolic matrix
// extents through the recorded schedule and rejects any bind whose buffers
// cannot unify. Three rule families, all purely static:
//
//   - bounds: every shaped access fits its buffer — within the registered
//     element capacity for slab buffers, exactly the registered extent for
//     whole-matrix buffers (weights, gradients, feature shards);
//   - kind typing: the task's declared shapes are consistent with its
//     operation — SpMM operands share the dense width, every GeMM output is
//     derivable from an input pair under NN/Tᵃ/Tᵇ, activations are
//     elementwise, Adam's read and write extents pair up, and a collective's
//     operands match its annotated payload;
//   - dataflow: reading a slab at a different extent than it was last
//     written is rejected. Slabs are reshaped legally by *writes* (that is
//     §4.2's whole point), but a read that disagrees with the live extent is
//     the 1.5D-style aliasing bug class: two views of one buffer silently
//     overlapping at different shapes.
//
// Tasks with no shaped declaration (raw test binds)
// are skipped; phantom graphs declare like real ones. Opaque
// entries (ViewShape.Opaque) participate in ordering only and are ignored
// here.
func CheckShapes(g *sim.Graph) []Finding {
	var out []Finding
	live := make(map[sim.BufID]sim.ViewShape)
	for _, t := range g.Tasks {
		if len(t.InShapes) == 0 && len(t.OutShapes) == 0 {
			continue
		}
		reads := denseShapes(t.InShapes)
		writes := denseShapes(t.OutShapes)

		for _, s := range append(append([]sim.ViewShape(nil), reads...), writes...) {
			out = append(out, checkBounds(g, t, s)...)
		}
		out = append(out, checkKind(t, reads, writes)...)

		// Dataflow: reads (and the read-half of writes, which accumulate)
		// must agree with the live extent; then writes set it.
		for _, s := range reads {
			if prev, ok := live[s.Buf]; ok && (prev.Rows != s.Rows || prev.Cols != s.Cols) {
				out = append(out, finding(t, "shape",
					"reads buffer %s at %dx%d but it was last written at %dx%d — aliased views disagree; "+
						"reshape the buffer with a write or fix the view extents",
					bufName(g, s.Buf), s.Rows, s.Cols, prev.Rows, prev.Cols))
			}
		}
		for _, s := range writes {
			live[s.Buf] = s
		}
	}
	return out
}

func denseShapes(in []sim.ViewShape) []sim.ViewShape {
	var out []sim.ViewShape
	for _, s := range in {
		if !s.Opaque() {
			out = append(out, s)
		}
	}
	return out
}

func bufName(g *sim.Graph, id sim.BufID) string {
	if g.Reg != nil {
		if n := g.Reg.Name(id); n != "" {
			return n
		}
	}
	return "#" + itoa(int(id))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func checkBounds(g *sim.Graph, t *sim.Task, s sim.ViewShape) []Finding {
	if g.Reg == nil {
		return nil
	}
	if rows, cols, ok := g.Reg.Shape(s.Buf); ok {
		if s.Rows != rows || s.Cols != cols {
			return []Finding{finding(t, "shape",
				"accesses whole-matrix buffer %s at %dx%d but it is declared %dx%d",
				bufName(g, s.Buf), s.Rows, s.Cols, rows, cols)}
		}
		return nil
	}
	if cap := g.Reg.Capacity(s.Buf); cap > 0 {
		if need := int64(s.Rows) * int64(s.Cols); need > cap {
			return []Finding{finding(t, "shape",
				"view of buffer %s needs %d elements (%dx%d) but its capacity is %d",
				bufName(g, s.Buf), need, s.Rows, s.Cols, cap)}
		}
	}
	return nil
}

func checkKind(t *sim.Task, reads, writes []sim.ViewShape) []Finding {
	all := append(append([]sim.ViewShape(nil), reads...), writes...)
	switch t.Kind {
	case sim.KindSpMM:
		// dst_i += A_ij · src_j: sparse times dense preserves the dense
		// width, so every dense operand shares Cols.
		for _, s := range all {
			if s.Cols != all[0].Cols {
				return []Finding{finding(t, "shape",
					"SpMM operands disagree on dense width: %dx%d vs %dx%d",
					all[0].Rows, all[0].Cols, s.Rows, s.Cols)}
			}
		}
	case sim.KindGeMM:
		var out []Finding
		for _, w := range writes {
			if !gemmDerivable(w, reads) {
				out = append(out, finding(t, "shape",
					"GeMM output %dx%d is not derivable from any input pair under A·B, Aᵀ·B or A·Bᵀ (inputs %v)",
					w.Rows, w.Cols, extentList(reads)))
			}
		}
		return out
	case sim.KindActivation:
		for _, s := range all {
			if s.Rows != all[0].Rows || s.Cols != all[0].Cols {
				return []Finding{finding(t, "shape",
					"elementwise operands disagree: %dx%d vs %dx%d",
					all[0].Rows, all[0].Cols, s.Rows, s.Cols)}
			}
		}
	case sim.KindAdam:
		if !sameExtentMultiset(reads, writes) {
			return []Finding{finding(t, "shape",
				"optimizer gradient extents %v do not pair with weight extents %v",
				extentList(reads), extentList(writes))}
		}
	case sim.KindComm:
		return checkCommShapes(t, reads, writes)
	}
	return nil
}

func gemmDerivable(w sim.ViewShape, reads []sim.ViewShape) bool {
	for i, a := range reads {
		for j, b := range reads {
			if i == j {
				continue
			}
			switch {
			case a.Cols == b.Rows && w.Rows == a.Rows && w.Cols == b.Cols: // A·B
				return true
			case a.Rows == b.Rows && w.Rows == a.Cols && w.Cols == b.Cols: // Aᵀ·B
				return true
			case a.Cols == b.Cols && w.Rows == a.Rows && w.Cols == b.Rows: // A·Bᵀ
				return true
			}
		}
	}
	return false
}

func checkCommShapes(t *sim.Task, reads, writes []sim.ViewShape) []Finding {
	c := t.Coll
	if c == nil {
		return nil // already reported by CheckCollectives
	}
	var out []Finding
	switch c.Op {
	case sim.CollAllGather:
		// Writes hold the total gathered extent; reads are the per-member
		// contributions whose rows concatenate to it.
		for _, s := range writes {
			if s.Rows != c.Rows || s.Cols != c.Cols {
				out = append(out, finding(t, "shape",
					"allgather destination %dx%d != annotated total %dx%d", s.Rows, s.Cols, c.Rows, c.Cols))
			}
		}
		sum := 0
		for _, s := range reads {
			sum += s.Rows
			if s.Cols != c.Cols {
				out = append(out, finding(t, "shape",
					"allgather contribution width %d != annotated width %d", s.Cols, c.Cols))
			}
		}
		if len(reads) > 0 && sum != c.Rows {
			out = append(out, finding(t, "shape",
				"allgather contributions total %d rows, annotation says %d", sum, c.Rows))
		}
	default:
		// broadcast / reduce / allreduce move shape-uniform payloads.
		for _, s := range append(append([]sim.ViewShape(nil), reads...), writes...) {
			if s.Rows != c.Rows || s.Cols != c.Cols {
				out = append(out, finding(t, "shape",
					"%s operand %dx%d != annotated payload %dx%d", c.Op, s.Rows, s.Cols, c.Rows, c.Cols))
			}
		}
	}
	return out
}

func extentList(shapes []sim.ViewShape) []string {
	out := make([]string, len(shapes))
	for i, s := range shapes {
		out[i] = itoa(s.Rows) + "x" + itoa(s.Cols)
	}
	return out
}

func sameExtentMultiset(a, b []sim.ViewShape) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s sim.ViewShape) int64 { return int64(s.Rows)<<32 | int64(s.Cols) }
	ka := make([]int64, len(a))
	kb := make([]int64, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Slice(ka, func(i, j int) bool { return ka[i] < ka[j] })
	sort.Slice(kb, func(i, j int) bool { return kb[i] < kb[j] })
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
