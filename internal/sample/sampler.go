package sample

import (
	"fmt"
	"math/bits"
	"slices"

	"mggcn/internal/rng"
	"mggcn/internal/sparse"
)

// Block is one sampled bipartite aggregation layer: Adj rows are the
// destination frontier (the vertices whose representations the layer
// produces), columns the source frontier, and values 1/sampled-degree so
// SpMM averages like the full-batch eq. (2).
type Block struct {
	Adj *sparse.CSR
	// AdjT is Adjᵀ (the block in CSC), built with the block so the backward
	// pass never transposes. The outermost block (blocks[0]) has none: its
	// sources are input features, which no gradient propagates to.
	AdjT *sparse.CSR
	// Src and Dst map local indices to graph vertex ids.
	Src, Dst []int32
	// AdjGlobal is Adj with graph vertex ids for columns (Src[ColIdx], graph
	// n columns), sharing Adj's RowPtr and Vals. Only the outermost block
	// carries it: the layer-0 aggregate reads the host feature store through
	// it instead of a gathered copy of the source rows.
	AdjGlobal *sparse.CSR
}

// BuildBlocks materializes the per-layer blocks for one mini-batch: blocks
// run outermost-first, so blocks[0] consumes raw input features and
// blocks[len-1] produces the batch vertices. Self-loops are added so a
// vertex's own representation survives aggregation (GraphSAGE style). It is
// the one-shot form of Sampler.Build: the blocks own their storage.
func BuildBlocks(adj *sparse.CSR, batch []int32, fanouts []int, seed int64) []*Block {
	return NewSampler(adj, fanouts).Build(batch, seed)
}

// Sampler builds fanout blocks over one graph with storage it keeps: a
// per-vertex bitmap that collects each frontier, a per-vertex array of the
// frontier's local indices, and per-hop arenas the blocks are emitted into
// directly in CSR form. The arenas grow on demand, so once a Sampler has seen
// the largest batch of a run, Build allocates nothing. Each hop is one pass
// over its destination rows (buildLevel) and one over the bitmap (drain).
//
// The blocks a Build returns alias the arenas and stay valid until the next
// Build on the same Sampler; a pipeline that samples step s+1 while step s
// trains keeps one Sampler per handoff slot. A Sampler is not safe for
// concurrent use.
type Sampler struct {
	adj     *sparse.CSR
	fanouts []int
	rng     rng.RNG

	// member has bit v set while v belongs to the frontier being collected;
	// drain reads it out in ascending order — deduplicated and sorted in one
	// pass over n/64 words — and leaves it all zero. local[v] is then v's
	// index in that frontier, meaningful only for its members.
	member []uint64
	local  []int32

	batch  []int32 // the deduplicated, sorted batch: the innermost Dst
	pick   []int   // PickK's output, max fanout long
	levels []level
	blocks []*Block

	touched int32 // touchRows' sink
}

// level is one hop's output arena.
type level struct {
	blk             Block
	adj, adjT, adjG sparse.CSR
	src, gcol       []int32 // gcol: AdjGlobal's column ids (hop 0 only)
}

// NewSampler returns a Sampler drawing fanouts[h] neighbours per vertex at
// hop h of adj (outermost hop first, as in BuildBlocks).
func NewSampler(adj *sparse.CSR, fanouts []int) *Sampler {
	s := &Sampler{
		adj:     adj,
		fanouts: fanouts,
		member:  make([]uint64, (adj.Rows+63)/64),
		local:   make([]int32, adj.Rows),
		levels:  make([]level, len(fanouts)),
		blocks:  make([]*Block, len(fanouts)),
	}
	maxFanout := 0
	for h, f := range fanouts {
		if f < 1 {
			panic(fmt.Sprintf("sample: fanout %d < 1", f))
		}
		maxFanout = max(maxFanout, f)
		lv := &s.levels[h]
		lv.blk.Adj = &lv.adj
		if h > 0 {
			lv.blk.AdjT = &lv.adjT
		} else {
			lv.blk.AdjGlobal = &lv.adjG
		}
		lv.adj.Vals = []float32{} // an empty block still carries values
		s.blocks[h] = &lv.blk
	}
	s.pick = make([]int, maxFanout)
	return s
}

// Build materializes the per-layer blocks of one mini-batch, exactly the
// blocks BuildBlocks documents, drawing from a stream seeded with seed.
func (s *Sampler) Build(batch []int32, seed int64) []*Block {
	s.rng.Seed(seed)
	for _, v := range batch {
		s.add(v)
	}
	s.batch = s.drain(s.batch[:0])
	dst := s.batch
	for h := len(s.fanouts) - 1; h >= 0; h-- {
		dst = s.buildLevel(h, dst)
	}
	return s.blocks
}

// add puts v in the frontier being collected.
func (s *Sampler) add(v int32) { s.member[v>>6] |= 1 << (v & 63) }

// drain appends the collected frontier to out in ascending order and
// empties it.
func (s *Sampler) drain(out []int32) []int32 {
	for w, word := range s.member {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
		s.member[w] = 0
	}
	return out
}

// buildLevel emits hop h's block for the destination frontier dst (sorted,
// unique) and returns its source frontier. Row v holds a self-loop and up to
// fanouts[h] sampled neighbours, columns ascending, each weighted by its
// multiplicity over the row's entry count — FromCoo's duplicate sum followed
// by NormalizeRowMean, bit for bit. Hop 0 also keeps the row's global
// column ids, as AdjGlobal.
//
// Rows go in chunks of rowChunk, each first read ahead by touchRows. A
// graph row is strictly ascending, so a block row is ascending without a
// sort of its columns: pickRow appends them in the graph row's order after
// the self-loop, which then moves to its place, merging with a graph
// self-loop into one entry that counts twice.
func (s *Sampler) buildLevel(h int, dst []int32) []int32 {
	lv := &s.levels[h]
	fanout := s.fanouts[h]
	rowPtr := append(lv.adj.RowPtr[:0], 0)
	colIdx, vals := lv.adj.ColIdx[:0], lv.adj.Vals[:0]
	for i, v := range dst {
		if i%rowChunk == 0 {
			s.touchRows(dst[i:min(i+rowChunk, len(dst))])
		}
		start := len(colIdx)
		cols, _ := s.adj.Row(int(v))
		colIdx = s.pickRow(append(colIdx, v), cols, fanout)
		row := colIdx[start:]
		k := 1
		for ; k < len(row) && row[k] < v; k++ {
			row[k-1] = row[k]
		}
		row[k-1] = v
		w := float32(float64(float32(1)) / float64(len(row)))
		self := w
		if k < len(row) && row[k] == v {
			self = float32(float64(float32(2)) / float64(len(row)))
			row = slices.Delete(row, k, k+1)
		}
		for _, u := range row {
			s.add(u)
			vals = append(vals, w)
		}
		vals[start+k-1] = self
		colIdx = colIdx[:start+len(row)]
		rowPtr = append(rowPtr, int64(len(colIdx)))
	}
	if h == 0 {
		lv.gcol = append(lv.gcol[:0], colIdx...)
	}
	src := s.drain(lv.src[:0])
	for i, u := range src {
		s.local[u] = int32(i)
	}
	for k, u := range colIdx {
		colIdx[k] = s.local[u]
	}
	lv.src = src
	lv.adj = sparse.CSR{Rows: len(dst), Cols: len(src), RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	if h > 0 {
		lv.adj.TransposeInto(&lv.adjT)
	} else {
		lv.adjG = sparse.CSR{Rows: len(dst), Cols: s.adj.Rows, RowPtr: rowPtr, ColIdx: lv.gcol, Vals: vals}
	}
	lv.blk.Src, lv.blk.Dst = src, dst
	return src
}

// rowChunk is how many rows touchRows reads ahead, few enough that what it
// loads is still in L1 when their turn comes.
const rowChunk = 64

// touchRows loads the graph rows of verts into cache: each one's RowPtr
// entries and its first and last columns. The loads are independent, so
// their misses overlap instead of coming one per row; the words go to a
// field nothing reads so that they stay loads.
func (s *Sampler) touchRows(verts []int32) {
	var x int32
	for _, v := range verts {
		if lo, hi := s.adj.RowPtr[v], s.adj.RowPtr[v+1]; lo < hi {
			x ^= s.adj.ColIdx[lo] ^ s.adj.ColIdx[hi-1]
		}
	}
	s.touched = x
}

// identity is Fisher–Yates' starting array for rows of at most 64 columns.
var identity = func() (a [64]uint8) {
	for i := range a {
		a[i] = uint8(i)
	}
	return a
}()

// pickRow appends to out the columns of cols a row keeps, ascending: all of
// them when there are at most fanout, else the fanout that PickK draws. A
// row of at most 64 columns draws them by Fisher–Yates over a real identity
// array (the values PickK's virtual one yields, from the same stream) into a
// mask read out lowest bit first; a longer row sorts its pick indices.
func (s *Sampler) pickRow(out, cols []int32, fanout int) []int32 {
	switch deg := len(cols); {
	case deg <= fanout:
		return append(out, cols...)
	case deg <= 64:
		a, mask := identity, uint64(0)
		for i := range fanout {
			j := i + s.rng.Intn(deg-i)
			mask |= 1 << a[j]
			a[j] = a[i]
		}
		for ; mask != 0; mask &= mask - 1 {
			out = append(out, cols[bits.TrailingZeros64(mask)])
		}
		return out
	}
	pick := s.rng.PickK(s.pick[:fanout], len(cols))
	slices.Sort(pick)
	for _, idx := range pick {
		out = append(out, cols[idx])
	}
	return out
}
