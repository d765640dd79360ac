package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nora/internal/analog"
)

// writeHeader prints the environment every result depends on. Results
// taken on different machines, toolchains or sources are not comparable.
func writeHeader(w io.Writer, workload string, seed uint64, seconds, trace int) {
	cfg := analog.PaperPreset()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Fprintf(w, "# cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# source=%s noise_stream=%s tiles=%dx%d\n", sourceHash(), cfg.NoiseStream, cfg.TileRows, cfg.TileCols)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the code under test: a SHA-256 over the Go
// sources and module files of the checkout (which need not be a git
// repository), or "unknown" when they cannot be read.
func sourceHash() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			ext := filepath.Ext(path)
			if d.IsDir() || (ext != ".go" && ext != ".s" && ext != ".mod") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
