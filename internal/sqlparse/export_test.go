package sqlparse

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
