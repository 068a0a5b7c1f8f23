package main

import (
	"strings"
	"testing"

	"autoview/internal/core"
	"autoview/internal/workload"
)

// selectorFlagDoc mirrors the -selector help text in main; the test pins
// it to the core registry so the flag docs can't drift from the selectors
// actually reachable.
const selectorFlagDoc = "rlview, bigsub, iterview, localsearch, topkfreq, topkover, topkben, topknorm"

func TestSelectorFlagDomainMatchesRegistry(t *testing.T) {
	var documented []string
	for _, name := range strings.Split(selectorFlagDoc, ", ") {
		documented = append(documented, name)
		if _, err := core.ParseSelector(name); err != nil {
			t.Errorf("documented selector %q does not parse: %v", name, err)
		}
	}
	reg := core.SelectorNames()
	if len(documented) != len(reg) {
		t.Errorf("flag doc lists %d selectors, registry has %d", len(documented), len(reg))
	}
	for name := range reg {
		found := false
		for _, d := range documented {
			if d == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registered selector %q missing from the -selector flag doc", name)
		}
	}
}

func TestSelectorFlagRejectsUnknown(t *testing.T) {
	if _, err := core.ParseSelector("bogus"); err == nil || !strings.Contains(err.Error(), "unknown selector") {
		t.Errorf("want unknown-selector error, got %v", err)
	}
	if _, err := core.ParseEstimator("bogus"); err == nil || !strings.Contains(err.Error(), "unknown estimator") {
		t.Errorf("want unknown-estimator error, got %v", err)
	}
}

func TestPickWorkloads(t *testing.T) {
	for _, name := range []string{"job", "wk1", "wk2", "JOB"} {
		w, err := workload.Open(name, "", "")
		if err != nil {
			t.Errorf("Open(%q): %v", name, err)
			continue
		}
		if len(w.Queries) == 0 {
			t.Errorf("Open(%q): empty workload", name)
		}
		if cfg := core.ConfigFor(w.Name); cfg.Selector != core.SelectorRLView {
			t.Errorf("ConfigFor(%q): default selector %v", name, cfg.Selector)
		}
	}
	if _, err := workload.Open("nope", "", ""); err == nil {
		t.Errorf("Open should reject unknown workloads")
	}
	if _, err := workload.Open("job", "schema.json", ""); err == nil || !strings.Contains(err.Error(), "need both -schema and -queries") {
		t.Errorf("Open with only -schema: %v", err)
	}
}
