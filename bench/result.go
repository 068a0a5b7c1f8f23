package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The result schema. One file per invocation lands in bench/out/ (see
// README.md, "Result schema"); the last line of standard output is the
// short form the driver reads.

const schemaVersion = "autoview-bench/1"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the contract's one-line result.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opCount counts one operation type of a run.
type opCount struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	WallS    float64 `json:"wall_s"`

	// EndToEnd holds every end-to-end metric of BENCHMARK.json; both
	// traced and untraced runs measure them (their difference is the
	// tracing overhead), only untraced runs are gated.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	// Timings are the latency distributions behind the metrics.
	Timings map[string]timing `json:"timings,omitempty"`
	// Ops counts operations by type; Failures holds the first reasons.
	Ops      map[string]*opCount `json:"ops"`
	Failures []string            `json:"failures,omitempty"`
	// Exact are counts that must repeat exactly for one seed.
	Exact map[string]string `json:"exact,omitempty"`
	// Notes are measurements that are neither gated nor layer metrics
	// (restart time, generator pace, stage split of the pipeline).
	Notes map[string]float64 `json:"notes,omitempty"`

	// Traced runs only.
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Reconcile []reconRow             `json:"reconcile,omitempty"`
	Spans     *spanDump              `json:"spans,omitempty"`

	// DaemonStderr is attached when the run failed.
	DaemonStderr string `json:"daemon_stderr,omitempty"`
}

func newRunResult(workload string, seed int64, seconds int, trace bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		EndToEnd: map[string]metricValue{},
		Timings:  map[string]timing{},
		Ops:      map[string]*opCount{},
		Exact:    map[string]string{},
		Notes:    map[string]float64{},
	}
}

// op records the outcome of one operation of the given type; a non-nil
// err is a failed, refused or incorrect operation.
func (r *runResult) op(kind string, err error) {
	if err == nil {
		r.ops(kind, 1, 0, nil)
		return
	}
	r.ops(kind, 1, 1, []string{err.Error()})
}

// ops records n operations of one type at once, failed of them failed.
func (r *runResult) ops(kind string, n, failed int, reasons []string) {
	c := r.Ops[kind]
	if c == nil {
		c = &opCount{}
		r.Ops[kind] = c
	}
	c.Attempted += n
	c.Failed += failed
	c.OK += n - failed
	for _, why := range reasons {
		if len(r.Failures) < maxFailureNotes {
			r.Failures = append(r.Failures, kind+": "+why)
		}
	}
}

func (r *runResult) totals() (attempted, failed int) {
	for _, c := range r.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// environment is attached to every result file.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Time       string `json:"time"`
}

func collectEnv() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// summaryStat is one end-to-end metric over the runs of one workload.
type summaryStat struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Unit   string    `json:"unit"`
	Bound  float64   `json:"bound"`
	Better string    `json:"better"`
	Values []float64 `json:"values"`
}

// resultFile is what one invocation writes.
type resultFile struct {
	Schema string       `json:"schema"`
	Env    environment  `json:"environment"`
	Seed   int64        `json:"seed"`
	Runs   []*runResult `json:"runs"`
	// Summary is workload → end-to-end metric → statistics over Runs
	// (untraced runs only).
	Summary map[string]map[string]summaryStat `json:"summary"`
}

func summarizeRuns(spec *benchSpec, runs []*runResult) map[string]map[string]summaryStat {
	out := map[string]map[string]summaryStat{}
	for _, m := range spec.EndToEnd {
		byWorkload := map[string][]float64{}
		for _, r := range runs {
			if r.Trace {
				continue
			}
			if v, ok := r.EndToEnd[m.Name]; ok {
				byWorkload[r.Workload] = append(byWorkload[r.Workload], v.Value)
			}
		}
		for w, vs := range byWorkload {
			q1, q2, q3 := quartiles(vs)
			if out[w] == nil {
				out[w] = map[string]summaryStat{}
			}
			out[w][m.Name] = summaryStat{N: len(vs), Median: q2, Q1: q1, Q3: q3,
				Unit: m.Unit, Bound: m.Bound, Better: m.Better, Values: vs}
		}
	}
	return out
}

func writeResultFile(dir string, f *resultFile, tag string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", tag, time.Now().UnixNano()))
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// --- BENCHMARK.json ------------------------------------------------------------

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// project builds the driver's line: exactly the metrics BENCHMARK.json
// lists for this kind of run, each under its listed unit. A metric the
// run did not produce is a harness bug and fails the run.
func (s *benchSpec) project(r *runResult) (driverLine, error) {
	attempted, failed := r.totals()
	line := driverLine{Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0,
		Metrics: map[string]metricValue{}}
	want, have := s.EndToEnd, r.EndToEnd
	if r.Trace {
		want, have = s.PerLayer, r.PerLayer
	}
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok {
			return line, fmt.Errorf("metric %s is in BENCHMARK.json but the run did not produce it", m.Name)
		}
		if v.Unit != m.Unit {
			return line, fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
		line.Metrics[m.Name] = v
	}
	for name := range have {
		found := false
		for _, m := range want {
			if m.Name == name {
				found = true
				break
			}
		}
		if !found {
			return line, fmt.Errorf("the run produced metric %s, which BENCHMARK.json does not list", name)
		}
	}
	return line, nil
}
