// Package cliprof implements the -cpuprofile and -memprofile flags shared by
// the repository's commands, using the standard runtime/pprof writers. The
// profiles describe the host process running the simulator, not anything
// simulated; they are read with `go tool pprof`.
package cliprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when it is non-empty, and
// returns a stop function. Stop ends the CPU profile and, when memPath is
// non-empty, writes the allocation profile (every sampled allocation since
// the process started, plus the live heap after a garbage collection) to
// memPath. Stop must be called once, on the command's successful exit path.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		runtime.GC() // bring the live-heap figures up to date
		werr := pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("memory profile: %w", werr)
		}
		return nil
	}, nil
}
