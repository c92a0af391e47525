package sample

import (
	"fmt"
	"math/bits"
	"slices"

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
// the largest batch of a run, Build allocates nothing.
//
// The blocks a Build returns alias the arenas and stay valid until the next
// Build on the same Sampler; a pipeline that samples step s+1 while step s
// trains keeps one Sampler per handoff slot. A Sampler is not safe for
// concurrent use.
type Sampler struct {
	adj     *sparse.CSR
	fanouts []int
	rng     RNG

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
	s.rng.state = uint64(seed)
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
func (s *Sampler) buildLevel(h int, dst []int32) []int32 {
	lv := &s.levels[h]
	fanout := s.fanouts[h]
	rowPtr := append(lv.adj.RowPtr[:0], 0)
	colIdx, vals := lv.adj.ColIdx[:0], lv.adj.Vals[:0]
	for _, v := range dst {
		start := len(colIdx)
		colIdx = append(colIdx, v)
		cols, _ := s.adj.Row(int(v))
		if len(cols) <= fanout {
			colIdx = append(colIdx, cols...)
		} else {
			for _, idx := range s.rng.PickK(s.pick[:fanout], len(cols)) {
				colIdx = append(colIdx, cols[idx])
			}
		}
		row := colIdx[start:]
		slices.Sort(row)
		entries := float64(len(row))
		// Collapse equal neighbours in place (a graph self-loop meets the
		// added one) and weight each by its count.
		out := start
		for i := 0; i < len(row); {
			j := i + 1
			for j < len(row) && row[j] == row[i] {
				j++
			}
			s.add(row[i])
			colIdx[out] = row[i]
			out++
			vals = append(vals, float32(float64(float32(j-i))/entries))
			i = j
		}
		colIdx = colIdx[:out]
		rowPtr = append(rowPtr, int64(out))
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
