package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// flushPolicy is how the service makes a checkpoint durable
// (internal/atomicfile). Recovery and checkpoint figures are only
// comparable between runs that record the same policy.
const flushPolicy = "atomicfile: temp file, fsync, rename, fsync dir"

// environment records what a result depends on besides the code: the
// CPUs, the server's runtime and kernel choice, and the filesystem the
// checkpoints are written to.
func environment(st serverStats, ckptDir string) map[string]any {
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      st.GOMAXPROCS,
		"go_version":      st.GoVersion,
		"kernel_features": st.Kernel,
		"checkpoint_fs":   fsType(ckptDir),
		"flush_policy":    flushPolicy,
	}
}

// fsType returns the type of the filesystem holding dir: the mount
// point in /proc/mounts that is the longest prefix of its absolute path.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
