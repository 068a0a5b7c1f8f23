package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"autoview/internal/core"
	"autoview/internal/durable"
)

// baseOptions returns a minimal valid option set; individual tests break
// one field to drive run's flag-validation paths.
func baseOptions() options {
	return options{
		workload:  "wk1",
		estimator: "wd",
		selector:  "rlview",
		logLevel:  "warn",
	}
}

func TestRunRejectsUnknownSelector(t *testing.T) {
	o := baseOptions()
	o.selector = "bogus"
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "unknown selector") {
		t.Fatalf("want unknown-selector error, got %v", err)
	}
}

func TestRunRejectsUnknownEstimator(t *testing.T) {
	o := baseOptions()
	o.estimator = "bogus"
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "unknown estimator") {
		t.Fatalf("want unknown-estimator error, got %v", err)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	o := baseOptions()
	o.workload = "nope"
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("want unknown-workload error, got %v", err)
	}
}

// TestSelectorFlagAcceptsEveryRegisteredName pins the -selector flag's
// value domain to the core registry and its default to localsearch.
func TestSelectorFlagAcceptsEveryRegisteredName(t *testing.T) {
	for name := range core.SelectorNames() {
		if _, err := core.ParseSelector(name); err != nil {
			t.Errorf("selector %q rejected: %v", name, err)
		}
	}
	if sel, err := core.ParseSelector(defaultSelector); err != nil || sel != core.SelectorLocalSearch {
		t.Errorf("daemon default selector = %v (%v), want localsearch", sel, err)
	}
}

// freeAddr picks a loopback address nobody is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// signalSelfAt runs the daemon in-process on a durable data dir, polls
// /v1/healthz until its status is wantStatus, sends this process SIGTERM
// at once and returns what run returned. Without a handler installed by
// then the default action ends the test binary — that is the failure
// this guards against.
func signalSelfAt(t *testing.T, wantStatus int) (dataDir string, runErr error) {
	t.Helper()
	o := baseOptions()
	o.estimator, o.selector = "optimizer", "topkben" // bootstrap in well under a second
	o.addr = freeAddr(t)
	o.dataDir = t.TempDir()
	o.fsync = "off"
	o.drainTimeout = 10 * time.Second
	done := make(chan error, 1)
	go func() { done <- run(o) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("run returned before /v1/healthz answered %d: %v", wantStatus, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/healthz never answered %d", wantStatus)
		}
		resp, err := http.Get("http://" + o.addr + "/v1/healthz")
		if err != nil {
			continue // listener not up yet
		}
		resp.Body.Close()
		if resp.StatusCode == wantStatus {
			break
		}
		if wantStatus != http.StatusOK && resp.StatusCode == http.StatusOK {
			t.Skip("bootstrap finished before the first poll; nothing mid-bootstrap to signal")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		return o.dataDir, err
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
		return "", nil
	}
}

// TestSignalAtFirstReadyDrains pins the shutdown contract at its
// tightest point: readiness is reported from inside Server.Start, so a
// supervisor can signal before run gets back from it. run's only nil
// return is the "drained cleanly" path, and the drain-time snapshot
// must be on disk afterwards.
func TestSignalAtFirstReadyDrains(t *testing.T) {
	dir, err := signalSelfAt(t, http.StatusOK)
	if err != nil {
		t.Fatalf("SIGTERM at first healthz 200: run = %v, want the drained-cleanly nil", err)
	}
	st, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen data dir after drain: %v", err)
	}
	defer st.Close()
	if st.Recovered() == nil {
		t.Fatal("drain left no recoverable state in the data dir")
	}
}

// TestSignalMidBootstrapExitsCleanly sends the signal while healthz
// still answers 503: bootstrap runs to completion (it does not poll the
// context), then the daemon drains — or Start reports the cancellation
// as an error. Either way run returns; the process is not killed.
func TestSignalMidBootstrapExitsCleanly(t *testing.T) {
	if _, err := signalSelfAt(t, http.StatusServiceUnavailable); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("SIGTERM mid-bootstrap: run = %v, want nil or a context.Canceled error", err)
	}
}
