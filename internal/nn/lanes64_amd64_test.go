//go:build amd64 && !purego

package nn

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestLaneCPUCheck holds the assembly's CPUID + XGETBV check to the
// kernel's own view of the machine: Linux lists the avx flag in
// /proc/cpuinfo only when the CPU has AVX and the kernel saves the YMM
// state, which is the check's condition. A wrong bit would run the
// portable twins at almost twice the CPU with every parity test still
// passing. The gauge nn.lanes.avx must report the same choice.
func TestLaneCPUCheck(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := slices.Contains(flags, "avx")
	if got := cpuHasAVX(); got != want {
		t.Fatalf("cpuHasAVX() = %t, /proc/cpuinfo lists avx: %t", got, want)
	}
	if laneAVX != want {
		t.Fatalf("laneAVX = %t, want %t", laneAVX, want)
	}
	if g := obsLanesAVX.Value(); (g == 1) != want {
		t.Fatalf("nn.lanes.avx = %v, want it 1 exactly when avx is listed (%t)", g, want)
	}
}
