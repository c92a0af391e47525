package main

import (
	"bytes"
	"math"
)

// verifyWorkloads are small stand-ins for the two trainer kinds: the
// correctness checks run on them outside every timed phase, in well under
// five seconds in total.
var verifyWorkloads = []workload{
	{Name: "verify-fullbatch", N: 2048, Deg: 16, Feat: 32, Hidden: 32, Layers: 2},
	{Name: "verify-sampled", N: 2048, Deg: 16, Feat: 32, Hidden: 32, Layers: 2,
		Sampled: true, Batch: 128, Fanouts: []int{5, 5}},
}

// verify runs the checks that the program's outputs are correct; every
// trainer built, epoch run and comparison made counts into o.
//
//   - the distributed full-batch trainer agrees with a single device: loss
//     after 3 epochs within 1e-4 relative, P=4 against P=1;
//   - the sampled pipeline changes the schedule only: losses with the
//     double-buffered handoff on and off are bit-identical;
//   - a checkpoint resumes exactly: save, load into a fresh trainer, and
//     both trainers' next-epoch losses are bit-identical (both kinds);
//   - the core trainers the traced run drives are the public ones: same
//     losses bit for bit through either constructor.
func verify(o *ops, seed uint64) {
	for _, w := range verifyWorkloads {
		ds, g := w.synthesize(), w.generate()

		public, err := w.newPublic(ds, seed)
		if !o.do(w.Name+": NewTrainer", err) {
			continue
		}
		pub, err := runEpochs(o, public, 3, nil)
		if err != nil {
			continue
		}

		// others are trainers whose losses must equal the public one's bit
		// for bit; single is the one held to a tolerance.
		type twin struct {
			what  string
			build func() (trainer, error)
		}
		others := []twin{{"public and core trainers agree", func() (trainer, error) { return w.newCore(g, seed, devices, nil) }}}
		if w.Sampled {
			off := w
			off.PipelineOff = true
			others = append(others, twin{"pipeline on and off agree", func() (trainer, error) { return off.newPublic(ds, seed) }})
		}
		for _, tw := range others {
			what := w.Name + ": " + tw.what
			other, err := tw.build()
			if !o.do(what+": NewTrainer", err) {
				continue
			}
			got, err := runEpochs(o, other, 3, nil)
			if err != nil {
				continue
			}
			for e := range pub.Losses {
				o.check(what, sameBits(pub.Losses[e], got.Losses[e]),
					"epoch %d: loss %v against %v", e, pub.Losses[e], got.Losses[e])
			}
		}
		if !w.Sampled {
			single, err := w.newCore(g, seed, 1, nil)
			if !o.do(w.Name+": NewTrainer P=1", err) {
				continue
			}
			one, err := runEpochs(o, single, 3, nil)
			if err != nil {
				continue
			}
			a, b := pub.Losses[2], one.Losses[2]
			o.check(w.Name+": P=4 agrees with P=1", math.Abs(a-b) <= 1e-4*math.Abs(b),
				"loss after 3 epochs %v at P=4, %v at P=1", a, b)
		}

		var ckpt bytes.Buffer
		if !o.do(w.Name+": SaveCheckpoint", public.SaveCheckpoint(&ckpt)) {
			continue
		}
		fresh, err := w.newPublic(ds, seed)
		if !o.do(w.Name+": NewTrainer for resume", err) {
			continue
		}
		if !o.do(w.Name+": LoadCheckpoint", fresh.LoadCheckpoint(&ckpt)) {
			continue
		}
		next, err := runEpochs(o, public, 1, nil)
		if err != nil {
			continue
		}
		resumed, err := runEpochs(o, fresh, 1, nil)
		if err != nil {
			continue
		}
		o.check(w.Name+": checkpoint resumes exactly", sameBits(next.Losses[0], resumed.Losses[0]),
			"next-epoch loss %v on the saved trainer, %v on the resumed one", next.Losses[0], resumed.Losses[0])
	}
}
