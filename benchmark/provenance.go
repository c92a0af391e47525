package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"mggcn/internal/kernel"
)

// buildTags names the -tags the binary was built with. run.sh sets it with
// -ldflags -X beside the tags themselves (runtime/debug would know, but the
// repository's analysis loader cannot import it); KernelImpl is what the
// tags actually bought on this CPU.
var buildTags = "unknown"

// provenance says what produced a set of numbers. Two result files are
// comparable only when KernelImpl and NumCPU agree.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"numcpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	BuildTags  string `json:"build_tags"`
	KernelImpl string `json:"kernel_impl"`
	Seed       uint64 `json:"seed"`
}

func collectProvenance(seed uint64) provenance {
	p := provenance{
		GitSHA: "unknown", CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), BuildTags: buildTags, KernelImpl: kernel.Impl(), Seed: seed,
	}
	// Only a checkout that is a git repository has a commit to name; asking
	// git elsewhere would have it search the parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.GitSHA = strings.TrimSpace(string(sha))
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return p
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "git_sha %s\ncpu_model %s\nnumcpu %d\ngomaxprocs %d\ngo_version %s\nbuild_tags %s\nkernel_impl %s\nseed %d\n",
		p.GitSHA, p.CPUModel, p.NumCPU, p.GoMaxProcs, p.GoVersion, p.BuildTags, p.KernelImpl, p.Seed)
}
