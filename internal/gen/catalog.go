package gen

import (
	"fmt"
	"sort"
	"sync"

	"mggcn/internal/graph"
)

// DatasetSpec describes one benchmark dataset: the full-scale statistics
// from the paper's Table 1 plus the Scale divisor this reproduction
// generates it at. Generated instances preserve average degree, feature
// width and class count; device memory capacities are divided by the same
// Scale so OOM boundaries are preserved (see DESIGN.md §2).
type DatasetSpec struct {
	Name      string
	FullN     int64   // vertices at paper scale
	FullM     int64   // directed edges at paper scale
	FeatDim   int     // d(0)
	Classes   int     // d(L)
	AvgDegree float64 // k = m/n
	Scale     int     // generation divisor: generated n = FullN/Scale
	Seed      uint64
}

// GenN returns the generated vertex count FullN/Scale.
func (s DatasetSpec) GenN() int { return int(s.FullN / int64(s.Scale)) }

// Catalog returns the paper's Table 1 datasets with this repo's scale
// factors. The map key is the lower-case dataset name.
func Catalog() map[string]DatasetSpec {
	specs := []DatasetSpec{
		{Name: "cora", FullN: 3_300, FullM: 9_200, FeatDim: 3703, Classes: 6, AvgDegree: 3, Scale: 1, Seed: 101},
		{Name: "arxiv", FullN: 169_000, FullM: 1_160_000, FeatDim: 128, Classes: 40, AvgDegree: 7, Scale: 4, Seed: 102},
		{Name: "papers", FullN: 111_000_000, FullM: 1_610_000_000, FeatDim: 128, Classes: 172, AvgDegree: 15, Scale: 1024, Seed: 103},
		{Name: "products", FullN: 2_500_000, FullM: 126_000_000, FeatDim: 104, Classes: 47, AvgDegree: 52, Scale: 64, Seed: 104},
		{Name: "proteins", FullN: 8_740_000, FullM: 1_300_000_000, FeatDim: 128, Classes: 256, AvgDegree: 150, Scale: 512, Seed: 105},
		{Name: "reddit", FullN: 233_000, FullM: 115_000_000, FeatDim: 602, Classes: 41, AvgDegree: 492, Scale: 32, Seed: 106},
	}
	out := make(map[string]DatasetSpec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

// AllNames returns every catalog name, sorted.
func AllNames() []string {
	c := Catalog()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Load generates (or returns the cached) instance of a catalog dataset.
// phantom instances carry adjacency structure only; non-phantom instances
// include features, labels and splits and are only sensible for the smaller
// datasets.
func Load(name string, phantom bool) (*graph.Graph, DatasetSpec, error) {
	spec, ok := Catalog()[name]
	if !ok {
		return nil, DatasetSpec{}, fmt.Errorf("gen: unknown dataset %q (have %v)", name, AllNames())
	}
	return cached(spec, phantom), spec, nil
}

// cached generates spec's dataset once per (name, phantom).
func cached(spec DatasetSpec, phantom bool) *graph.Graph {
	key := fmt.Sprintf("%s/phantom=%t", spec.Name, phantom)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g
	}
	cfg := DefaultBTER(spec.GenN(), spec.AvgDegree, spec.Seed)
	g := Generate(spec.Name, cfg, spec.FeatDim, spec.Classes, phantom)
	cache[key] = g
	return g
}

// DegreeScaledSpec returns the Figure-9 synthetic family member: the Arxiv
// degree profile with the average degree multiplied by factor (1, 2, ...,
// 128) at a fixed vertex count. Feature width 512 and 40 classes per §6.
func DegreeScaledSpec(factor int) DatasetSpec {
	if factor < 1 {
		panic(fmt.Sprintf("gen: degree scale factor %d < 1", factor))
	}
	return DatasetSpec{
		Name:      fmt.Sprintf("arxiv-%dx", factor),
		FullN:     8_192, // fixed n; Fig 9 scales only the degree
		FullM:     int64(8_192 * 7 * factor),
		FeatDim:   512,
		Classes:   40,
		AvgDegree: 7 * float64(factor),
		Scale:     1,
		Seed:      200 + uint64(factor),
	}
}

// LoadDegreeScaled generates (with caching) the Figure-9 family member for
// the given degree multiplier.
func LoadDegreeScaled(factor int, phantom bool) (*graph.Graph, DatasetSpec) {
	spec := DegreeScaledSpec(factor)
	return cached(spec, phantom), spec
}
