package memcheck

import "mggcn/internal/sim"

// LiveStats is the liveness pass's per-device result, keyed "d0", "d1", ...
// like the allocation meter's maps.
type LiveStats struct {
	Bytes map[string]int64
	Count map[string]int
}

// PeakLiveSlabs computes, purely from a recorded graph's declared task
// access sets and scheduling edges, the per-device peak over every legal
// replay order of simultaneously live §4.2 slab bytes (and slab count) —
// the static twin of sim.AllocMeter's replayed measurement.
//
// A slab b MAY be live at the instant task t executes if some access of b
// is not forced strictly after t (it can already have run, charging b) and
// some access is not forced strictly before t (b cannot have released
// yet). "Forced" is hb, which must be the executor's own happens-before
// (g.HappensBefore(sim.ExecutorEdges): declared deps, per-(device, stream)
// FIFO, and cross-stream fences) for the bound to cover exactly the orders
// the replay can take. Slab membership, owning device and capacity come
// from g.Reg; a graph without a registry has no slabs. The maximum over
// tasks of the MAY-live byte sum upper-bounds the high-water of every order;
// on the shipped schedules the certified closed forms prove the bound is
// attained by an order-forced instant, and the golden tests pin all three
// legs to byte-exact equality.
func PeakLiveSlabs(g *sim.Graph, hb *sim.HB) LiveStats {
	stats := LiveStats{Bytes: map[string]int64{}, Count: map[string]int{}}
	if g.Reg == nil {
		return stats
	}

	// The slab universe and each slab's accessing task set, one entry per
	// task even when it both reads and writes the buffer.
	type slab struct {
		dev   string
		bytes int64
		acc   []int
	}
	slabs := map[sim.BufID]*slab{} // nil: registered, but not a slab
	for i, t := range g.Tasks {
		for _, b := range t.Buffers() {
			s, ok := slabs[b]
			if !ok {
				if dev, isSlab, _ := g.Reg.Owner(b); isSlab {
					s = &slab{dev: sim.DeviceKey(dev), bytes: g.Reg.Capacity(b) * 4}
				}
				slabs[b] = s
			}
			if s != nil {
				s.acc = append(s.acc, i)
			}
		}
	}

	for t := range g.Tasks {
		bytes := map[string]int64{}
		count := map[string]int{}
		for _, s := range slabs {
			if s == nil {
				continue
			}
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
			if b > stats.Bytes[dev] {
				stats.Bytes[dev] = b
			}
			if count[dev] > stats.Count[dev] {
				stats.Count[dev] = count[dev]
			}
		}
	}
	return stats
}
