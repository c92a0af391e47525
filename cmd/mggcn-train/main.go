// Command mggcn-train trains a GCN on a catalog dataset with MG-GCN across
// the simulated GPUs of a DGX-class machine, printing per-epoch loss,
// accuracy, and the simulated epoch time.
//
//	mggcn-train -dataset cora -gpus 4 -epochs 50
//	mggcn-train -dataset products -gpus 8 -machine a100 -phantom
//	mggcn-train -synthetic -n 2000 -degree 16 -classes 8 -features 32
//	mggcn-train -dataset cora -gpus 4 -sampled -batch 256 -fanouts 5,10 -layers 2
//	mggcn-train -dataset products -gpus 4 -machine v100 -phantom -timeline fwd0/spmm   # Fig 6/8 charts
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"mggcn"
	"mggcn/internal/core"
	"mggcn/internal/kernel"
	"mggcn/internal/sim"
)

func main() {
	strategies := map[string]mggcn.Strategy{}
	var strategyNames []string
	for _, s := range core.Strategies() {
		strategies[s.Name()] = s
		strategyNames = append(strategyNames, s.Name())
	}
	var (
		dataset   = flag.String("dataset", "cora", "catalog dataset: "+strings.Join(mggcn.DatasetNames(), ", "))
		machine   = flag.String("machine", "a100", "machine: v100 or a100")
		gpus      = flag.Int("gpus", 1, "number of GPUs (1-8)")
		epochs    = flag.Int("epochs", 20, "training epochs")
		hidden    = flag.Int("hidden", 512, "hidden layer width (sampled: 128 unless given)")
		layers    = flag.Int("layers", 2, "layer count")
		lr        = flag.Float64("lr", 0.01, "Adam learning rate")
		phantom   = flag.Bool("phantom", false, "structure-only run: timing and memory, no real math")
		noOverlap = flag.Bool("no-overlap", false, "disable §4.3 comm/compute overlap")
		strategy  = flag.String("strategy", strategyNames[0], "partitioning strategy: "+strings.Join(strategyNames, ", "))
		ordering  = flag.String("ordering", "random", "vertex ordering: random (§5.2), natural, degree, bfs, cyclic")
		balanced  = flag.Bool("balanced-cuts", false, "cut partitions at equal degree instead of equal vertices")
		saveCkpt  = flag.String("save-checkpoint", "", "write model+optimizer state here after training")
		loadCkpt  = flag.String("load-checkpoint", "", "restore model+optimizer state before training")
		sampled   = flag.Bool("sampled", false, "sampled-minibatch training (GNNLab-style sampler pipeline)")
		batch     = flag.Int("batch", 512, "sampled: target vertices per minibatch")
		fanouts   = flag.String("fanouts", "5,10,15", "sampled: per-layer neighbor fanouts, outermost first (sets the layer count unless -layers is given)")
		cacheFrac = flag.Float64("cache-frac", 0.5, "sampled: fraction of feature rows cached per device, hottest first")
		patience  = flag.Int("patience", 0, "sampled: stop after this many epochs without val-accuracy improvement (0 disables)")
		saveData  = flag.String("save-dataset", "", "write the dataset in binary form and exit")
		timeline  = flag.String("timeline", "", "render one epoch's ASCII Gantt chart of the tasks whose label contains this (e.g. fwd0/spmm) and exit")
		synthetic = flag.Bool("synthetic", false, "train on a synthetic BTER graph instead of the catalog")
		n         = flag.Int("n", 2000, "synthetic: vertex count")
		degree    = flag.Float64("degree", 16, "synthetic: average degree")
		features  = flag.Int("features", 32, "synthetic: feature width")
		classes   = flag.Int("classes", 8, "synthetic: class count")
		seed      = flag.Uint64("seed", 42, "synthetic: generator seed")
	)
	flag.Parse()

	spec, err := sim.ParseMachine(*machine)
	if err != nil {
		log.Fatal(err)
	}

	var ds *mggcn.Dataset
	if *synthetic {
		if *n < 1 || *features < 1 || *classes < 1 || !(*degree > 0) {
			log.Fatalf("-synthetic needs positive -n, -degree, -features and -classes (got %d, %g, %d, %d)",
				*n, *degree, *features, *classes)
		}
		ds = mggcn.SynthesizeDataset("synthetic", *n, *degree, *features, *classes, *seed, *phantom)
	} else {
		ds, err = mggcn.LoadDataset(*dataset, *phantom)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("dataset %s: n=%d m=%d k=%.1f features=%d classes=%d scale=1/%d\n",
		ds.Name(), ds.N(), ds.M(), ds.AvgDegree(), ds.FeatDim(), ds.Classes(), ds.Scale())

	if *saveData != "" {
		f, err := os.Create(*saveData)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.WriteBinary(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote dataset to %s\n", *saveData)
		return
	}

	if *sampled {
		if *timeline != "" {
			log.Fatal("-timeline renders a full-batch epoch; drop -sampled")
		}
		// -layers and -fanouts must agree in sampled mode; when only one was
		// given explicitly, the other follows it instead of fighting its
		// default (the fanout list trims from the outermost hop). -hidden's
		// default is the full-batch model's, so it applies only when given.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		sampledLayers, fanoutStr := *layers, *fanouts
		if explicit["layers"] && !explicit["fanouts"] {
			parts := strings.Split(fanoutStr, ",")
			if *layers < len(parts) {
				fanoutStr = strings.Join(parts[len(parts)-*layers:], ",")
			}
		} else if !explicit["layers"] {
			sampledLayers = len(strings.Split(fanoutStr, ","))
		}
		o := mggcn.DefaultSampledOptions(spec, *gpus)
		o.Layers, o.LR = sampledLayers, *lr
		if explicit["hidden"] {
			o.Hidden = *hidden
		}
		o.Batch, o.CacheFrac = *batch, *cacheFrac
		o.EarlyStopPatience = *patience
		o.TrackVal = *patience > 0
		o.Fanouts = nil
		for _, s := range strings.Split(fanoutStr, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("bad -fanouts %q: %v", fanoutStr, err)
			}
			o.Fanouts = append(o.Fanouts, f)
		}
		tr, err := mggcn.NewSampledTrainer(ds, o)
		built(err, spec, *gpus)
		fmt.Printf("sampled training: %d layers (hidden %d) batch %d fanouts %v cache %.0f%% on %d GPUs of %s; %s\n",
			o.Layers, o.Hidden, o.Batch, o.Fanouts, o.CacheFrac*100, *gpus, spec.Name, kernels())
		heldOut := ""
		if o.TrackVal {
			heldOut = "val"
		}
		train(tr, ds.IsPhantom(), *epochs, heldOut, *loadCkpt, *saveCkpt)
		return
	}

	o := mggcn.DefaultOptions(spec, *gpus)
	o.Hidden, o.Layers, o.LR = *hidden, *layers, *lr
	o.Overlap = !*noOverlap
	var known bool
	if o.Strategy, known = strategies[*strategy]; !known {
		log.Fatalf("unknown strategy %q (want %s)", *strategy, strings.Join(strategyNames, ", "))
	}
	orderings := map[string]mggcn.Ordering{"natural": mggcn.OrderingNatural, "random": mggcn.OrderingRandom,
		"degree": mggcn.OrderingDegreeSorted, "bfs": mggcn.OrderingBFS, "cyclic": mggcn.OrderingBlockCyclic}
	if o.Ordering, known = orderings[strings.ToLower(*ordering)]; !known {
		log.Fatalf("unknown ordering %q", *ordering)
	}
	o.BalancedPartition = *balanced
	if *timeline != "" {
		chart, epoch, err := mggcn.Timeline(ds, o, *timeline, 76)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q tasks on %d GPUs of %s (ordering=%s overlap=%t), epoch %.4fs\n",
			*timeline, *gpus, spec.Name, o.Ordering, o.Overlap, epoch)
		fmt.Printf("compute rows show SpMM stage digits; comm rows show ~ for broadcasts\n\n%s", chart)
		return
	}
	tr, err := mggcn.NewTrainer(ds, o)
	built(err, spec, *gpus)
	fmt.Printf("training %d layers (hidden %d) on %d GPUs of %s (%s); %d buffers/device, peak %d MiB/device; %s\n",
		o.Layers, o.Hidden, *gpus, spec.Name, *strategy, tr.BufferCount(), tr.PeakMemoryBytes()>>20, kernels())
	train(tr, ds.IsPhantom(), *epochs, "test", *loadCkpt, *saveCkpt)
}

// kernels names the float32 kernels this binary runs and, when the start-up
// probe refused the CPU's vector candidate, the entry and shape it refused
// at — a run silently on the slow table shows in its first lines.
func kernels() string {
	if err := kernel.ProbeErr(); err != nil {
		return fmt.Sprintf("%s kernels (%v)", kernel.Impl(), err)
	}
	return kernel.Impl() + " kernels"
}

// built exits on a trainer construction error, naming an out-of-memory one.
func built(err error, spec mggcn.MachineSpec, gpus int) {
	if mggcn.IsOOM(err) {
		log.Fatalf("out of memory on %s with %d GPUs: %v", spec.Name, gpus, err)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// trainer is what both modes' trainers share.
type trainer interface {
	Train(epochs int) ([]*mggcn.EpochStats, error)
	SaveCheckpoint(w io.Writer) error
	LoadCheckpoint(r io.Reader) error
}

// train is the run both modes share: restore a checkpoint, train, print a
// line per epoch and the total, save a checkpoint. A phantom run prints
// simulated seconds only; heldOut names the held-out accuracy each line
// reports ("test", "val" or none).
func train(tr trainer, phantom bool, epochs int, heldOut, loadCkpt, saveCkpt string) {
	if loadCkpt != "" {
		f, err := os.Open(loadCkpt)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.LoadCheckpoint(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("restored checkpoint from %s\n", loadCkpt)
	}
	stats, trainErr := tr.Train(epochs)
	var total float64
	for e, s := range stats {
		total += s.EpochSeconds
		line := fmt.Sprintf("epoch %3d:", e+1)
		if !phantom {
			line += fmt.Sprintf(" loss %.4f train-acc %.4f", s.Loss, s.TrainAcc)
			switch heldOut {
			case "test":
				line += fmt.Sprintf(" test-acc %.4f", s.TestAcc)
			case "val":
				line += fmt.Sprintf(" val-acc %.4f", s.ValAcc)
			}
		}
		fmt.Printf("%s sim %.4fs\n", line, s.EpochSeconds)
	}
	if trainErr != nil {
		log.Fatalf("training failed after %d epochs: %v", len(stats), trainErr)
	}
	if len(stats) < epochs {
		fmt.Printf("early stop after %d of %d epochs: no val-accuracy improvement\n", len(stats), epochs)
	}
	fmt.Printf("total simulated training time: %.3fs (%.4fs/epoch)\n", total, total/float64(len(stats)))
	if saveCkpt != "" {
		if err := mggcn.SaveCheckpointAtomic(saveCkpt, tr.SaveCheckpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved checkpoint to %s\n", saveCkpt)
	}
}
