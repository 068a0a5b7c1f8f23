package sqlparse

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

// ParseSeeds returns FuzzParse's seed statements, for the fuzz targets
// that sqlparse's external tests run over the packages above it.
func ParseSeeds() []string {
	seeds := append([]string{}, fuzzParseFirst...)
	seeds = append(seeds, fpTemplates...)
	for _, c := range parseErrorCases {
		seeds = append(seeds, c.src)
	}
	return seeds
}

// parseSeedsFile holds ParseSeeds, one Go-quoted statement a line, for
// the fuzz targets of packages that cannot import this test file: the
// serve package's FuzzTextCache reads it.
const parseSeedsFile = "testdata/parse_seeds.txt"

var updateSeeds = flag.Bool("update-seeds", false, "rewrite "+parseSeedsFile+" from ParseSeeds")

// TestParseSeedsFile keeps parseSeedsFile equal to ParseSeeds. After a
// seed changes, rewrite it with
//
//	go test ./internal/sqlparse -run TestParseSeedsFile -update-seeds
func TestParseSeedsFile(t *testing.T) {
	var b strings.Builder
	for _, s := range ParseSeeds() {
		b.WriteString(strconv.Quote(s))
		b.WriteByte('\n')
	}
	if *updateSeeds {
		if err := os.WriteFile(parseSeedsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(parseSeedsFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != b.String() {
		t.Fatalf("%s differs from ParseSeeds: rerun this test with -update-seeds", parseSeedsFile)
	}
}
