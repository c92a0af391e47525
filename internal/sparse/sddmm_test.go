package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mggcn/internal/tensor"
)

func TestSDDMMMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, d := rng.Intn(10)+1, rng.Intn(10)+1, rng.Intn(6)+1
		pattern := randomCSR(rng, m, n, 0.4, false)
		a, b := randomDense(rng, m, d), randomDense(rng, n, d)
		out := SDDMM(pattern, a, b)
		if out.NNZ() != pattern.NNZ() {
			return false
		}
		for u := 0; u < m; u++ {
			cols, vals := out.Row(u)
			for k, c := range cols {
				var want float32
				for j := 0; j < d; j++ {
					want += a.At(u, j) * b.At(int(c), j)
				}
				if math.Abs(float64(vals[k]-want)) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSDDMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	SDDMM(FromCoo(2, 2, nil, false), tensor.NewDense(2, 3), tensor.NewDense(2, 4))
}

func TestSDDMMPhantomReturnsZeros(t *testing.T) {
	pattern := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}}, false)
	out := SDDMM(pattern, tensor.NewPhantom(2, 4), tensor.NewPhantom(2, 4))
	if out.NNZ() != 1 || out.Vals[0] != 0 {
		t.Fatalf("phantom SDDMM wrong")
	}
}

func TestLeakyReLUVals(t *testing.T) {
	m := FromCoo(1, 2, []Coo{{Row: 0, Col: 0, Val: -2}, {Row: 0, Col: 1, Val: 3}}, true)
	out := LeakyReLUVals(m, 0.2)
	if math.Abs(float64(out.Vals[0]+0.4)) > 1e-6 || out.Vals[1] != 3 {
		t.Fatalf("leaky relu vals %v", out.Vals)
	}
	if m.Vals[0] != -2 {
		t.Fatalf("input mutated")
	}
}

func TestRowSoftmaxSumsToOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, rng.Intn(8)+2, rng.Intn(8)+2, 0.5, true)
		sm := RowSoftmax(m)
		for u := 0; u < m.Rows; u++ {
			_, vals := sm.Row(u)
			if len(vals) == 0 {
				continue
			}
			var s float64
			for _, v := range vals {
				if v < 0 || v > 1 {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRowSoftmaxMatchesTwoExpBody: computing each exp once, through
// kernel.ExpRow and kernel.NormRow at scale 1, changes no bit of the edge
// softmax. The reference is the body that called math.Exp twice per entry,
// on rows from empty to longer than any vector step, with scores wide enough
// to reach the subnormal band.
func TestRowSoftmaxMatchesTwoExpBody(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 40, 120, 0.3, true)
	for i := range m.Vals {
		m.Vals[i] = float32(rng.NormFloat64() * 200)
	}
	got := RowSoftmax(m)
	for u := 0; u < m.Rows; u++ {
		_, row := m.Row(u)
		_, vals := got.Row(u)
		if len(row) == 0 {
			continue
		}
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		for k, v := range row {
			if want := float32(math.Exp(float64(v-mx)) / sum); math.Float32bits(vals[k]) != math.Float32bits(want) {
				t.Fatalf("row %d entry %d: %x, two-exp body %x", u, k, math.Float32bits(vals[k]), math.Float32bits(want))
			}
		}
	}
}

func TestRowSoftmaxStability(t *testing.T) {
	m := FromCoo(1, 2, []Coo{{Row: 0, Col: 0, Val: 1000}, {Row: 0, Col: 1, Val: -1000}}, true)
	sm := RowSoftmax(m)
	if math.IsNaN(float64(sm.Vals[0])) || sm.Vals[0] < 0.99 {
		t.Fatalf("unstable softmax: %v", sm.Vals)
	}
}

func TestRowSoftmaxBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := randomCSR(rng, 4, 5, 0.6, true)
	dAlpha := withFreshVals(e)
	for i := range dAlpha.Vals {
		dAlpha.Vals[i] = float32(rng.NormFloat64())
	}
	alpha := RowSoftmax(e)
	dE := RowSoftmaxBackward(alpha, dAlpha)
	// Loss = sum(dAlpha .* softmax(e)); check d Loss / d e_k numerically.
	loss := func() float64 {
		sm := RowSoftmax(e)
		var s float64
		for i := range sm.Vals {
			s += float64(sm.Vals[i]) * float64(dAlpha.Vals[i])
		}
		return s
	}
	const h = 1e-3
	for k := range e.Vals {
		orig := e.Vals[k]
		e.Vals[k] = orig + h
		up := loss()
		e.Vals[k] = orig - h
		down := loss()
		e.Vals[k] = orig
		fd := (up - down) / (2 * h)
		if math.Abs(fd-float64(dE.Vals[k])) > 1e-3 {
			t.Fatalf("entry %d: analytic %v, fd %v", k, dE.Vals[k], fd)
		}
	}
}

func TestRowColSums(t *testing.T) {
	m := FromCoo(2, 3, []Coo{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 2}, {Row: 1, Col: 2, Val: 3},
	}, true)
	rs := RowSums(m)
	if rs[0] != 3 || rs[1] != 3 {
		t.Fatalf("row sums %v", rs)
	}
	cs := ColSums(m)
	if cs[0] != 1 || cs[1] != 0 || cs[2] != 5 {
		t.Fatalf("col sums %v", cs)
	}
}

func TestValueOpsRejectStructureOnly(t *testing.T) {
	m := FromCoo(2, 2, []Coo{{Row: 0, Col: 1}}, false)
	for _, f := range []func(){
		func() { LeakyReLUVals(m, 0.1) },
		func() { RowSoftmax(m) },
		func() { RowSums(m) },
		func() { ColSums(m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}
