package memcheck

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"mggcn/internal/sim"
)

// LiveStats is the per-device result of the liveness pass and of the
// meter, keyed by DeviceKey.
type LiveStats struct {
	Bytes map[string]int64
	Count map[string]int
}

// DeviceKey names device dev in LiveStats' maps ("d0", "d1", ...).
func DeviceKey(dev int) string { return "d" + strconv.Itoa(dev) }

// raise lifts dev's high-water to bytes and count where they exceed it.
func (s LiveStats) raise(dev string, bytes int64, count int) {
	s.Bytes[dev] = max(s.Bytes[dev], bytes)
	s.Count[dev] = max(s.Count[dev], count)
}

// slab is one §4.2 slab of a recorded graph: its device, its full capacity
// in bytes, and the tasks that access it in issue order, each once.
type slab struct {
	dev   string
	bytes int64
	acc   []int
}

// slabsOf walks g's declared access sets for the slab universe: every
// buffer g.Reg registered as a slab (membership, owning device and capacity
// are what it was registered with), in order of first access. A graph
// without a registry has no slabs. Capacity-zero slabs (the handoff slots'
// pseudo-buffers) count as slabs and weigh zero bytes.
func slabsOf(g *sim.Graph) []*slab {
	if g.Reg == nil {
		return nil
	}
	var out []*slab
	seen := map[sim.BufID]*slab{} // nil: registered, but not a slab
	for i, t := range g.Tasks {
		for _, b := range t.Buffers() {
			s, ok := seen[b]
			if !ok {
				if dev, isSlab, _ := g.Reg.Owner(b); isSlab {
					s = &slab{dev: DeviceKey(dev), bytes: g.Reg.Capacity(b) * 4}
					out = append(out, s)
				}
				seen[b] = s
			}
			if s != nil {
				s.acc = append(s.acc, i)
			}
		}
	}
	return out
}

// PeakLiveSlabs computes, purely from a recorded graph's declared task
// access sets and scheduling edges, the per-device peak over every legal
// replay order of simultaneously live §4.2 slab bytes (and slab count) —
// the static twin of MeteredSlabs' replayed measurement.
//
// A slab b MAY be live at the instant task t executes if some access of b
// is not forced strictly after t (it can already have run, charging b) and
// some access is not forced strictly before t (b cannot have released
// yet). "Forced" is hb, which must be the executor's own happens-before
// (g.HappensBefore(sim.ExecutorEdges): declared deps, per-(device, stream)
// FIFO, and cross-stream fences) for the bound to cover exactly the orders
// the replay can take, concurrent ones included. The maximum over tasks of
// the MAY-live byte sum upper-bounds the high-water of every order; on the
// shipped schedules the certified closed forms prove the bound is attained
// by an order-forced instant, and the golden tests pin all three legs to
// byte-exact equality.
func PeakLiveSlabs(g *sim.Graph, hb *sim.HB) LiveStats {
	stats := LiveStats{Bytes: map[string]int64{}, Count: map[string]int{}}
	slabs := slabsOf(g)
	for t := range g.Tasks {
		bytes := map[string]int64{}
		count := map[string]int{}
		for _, s := range slabs {
			charged, held := false, false
			for _, a := range s.acc {
				if !charged && !hb.Before(t, a) {
					charged = true
				}
				if !held && !hb.Before(a, t) {
					held = true
				}
				if charged && held {
					break
				}
			}
			if charged && held {
				bytes[s.dev] += s.bytes
				count[s.dev]++
			}
		}
		for dev, b := range bytes {
			stats.raise(dev, b, count[dev])
		}
	}
	return stats
}

// MeteredSlabs is the measured leg: the per-device high-water of charged
// §4.2 slab bytes (and slab count) over one replay of g, read off the
// executor's stamps (g.Stamps) alone, so the replay may run at any worker
// count. Each slab is charged from the Start of its first access that ran
// to the End of its last; at equal instants a release comes before a
// charge, and a slab no task of which ran charges nothing. A phantom or
// unreplayed graph meters zero.
func MeteredSlabs(g *sim.Graph) LiveStats {
	stats := LiveStats{Bytes: map[string]int64{}, Count: map[string]int{}}
	type event struct {
		at   int64
		sign int // -1 release, +1 charge: releases sort first
		s    *slab
	}
	var events []event
	for _, s := range slabsOf(g) {
		first, last := int64(math.MaxInt64), int64(0)
		for _, a := range s.acc {
			if a < len(g.Stamps) && g.Stamps[a].End != 0 { // the task ran
				first, last = min(first, g.Stamps[a].Start), max(last, g.Stamps[a].End)
			}
		}
		if last != 0 {
			events = append(events, event{first, 1, s}, event{last, -1, s})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.sign, b.sign))
	})
	bytes, count := map[string]int64{}, map[string]int{}
	for _, e := range events {
		bytes[e.s.dev] += int64(e.sign) * e.s.bytes
		count[e.s.dev] += e.sign
		stats.raise(e.s.dev, bytes[e.s.dev], count[e.s.dev])
	}
	return stats
}
