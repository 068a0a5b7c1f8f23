package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"autoview/internal/catalog"
)

// SchemaFile is the JSON format for user-provided catalogs:
//
//	{"tables": [{"name": "t", "project": "p1", "rows": 1000,
//	             "columns": [{"name": "a", "type": "int", "distinct": 10}]}]}
type SchemaFile struct {
	Tables []SchemaTable `json:"tables"`
}

// SchemaTable describes one table of a schema file.
type SchemaTable struct {
	Name    string         `json:"name"`
	Project string         `json:"project"`
	Rows    int            `json:"rows"`
	Columns []SchemaColumn `json:"columns"`
}

// SchemaColumn describes one column of a schema file.
type SchemaColumn struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // int, float, string
	Distinct int    `json:"distinct"`
}

// LoadCatalog reads a schema file into a catalog.
func LoadCatalog(r io.Reader) (*catalog.Catalog, error) {
	var sf SchemaFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("workload: schema: %w", err)
	}
	if len(sf.Tables) == 0 {
		return nil, fmt.Errorf("workload: schema defines no tables")
	}
	cat := catalog.New()
	for _, st := range sf.Tables {
		cols := make([]catalog.Column, len(st.Columns))
		for i, c := range st.Columns {
			typ, err := parseColType(c.Type)
			if err != nil {
				return nil, fmt.Errorf("workload: table %q column %q: %w", st.Name, c.Name, err)
			}
			d := c.Distinct
			if d <= 0 {
				d = 10
			}
			cols[i] = catalog.Column{Name: c.Name, Type: typ, Distinct: d}
		}
		rows := st.Rows
		if rows <= 0 {
			rows = 1000
		}
		err := cat.Add(&catalog.Table{
			Name:    st.Name,
			Project: st.Project,
			Columns: cols,
			Stats:   catalog.TableStats{Rows: rows},
		})
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	}
	return cat, nil
}

func parseColType(s string) (catalog.ColType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "bigint":
		return catalog.TypeInt, nil
	case "float", "double", "real":
		return catalog.TypeFloat, nil
	case "string", "text", "varchar":
		return catalog.TypeString, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

// LoadQueries reads a SQL file into a workload over the catalog. Queries
// are ';'-separated; a line of the form "-- project: <name>" assigns the
// following queries to that project; other "--" comments are ignored.
func LoadQueries(r io.Reader, cat *catalog.Catalog, name string) (*Workload, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("workload: queries: %w", err)
	}
	w := &Workload{Name: name, Cat: cat, DataSeed: 1}
	project := "default"
	var current strings.Builder
	flush := func() {
		sql := strings.TrimSpace(current.String())
		current.Reset()
		if sql != "" {
			id := fmt.Sprintf("%s-q%03d", name, len(w.Queries))
			w.Queries = append(w.Queries, Query{ID: id, Project: project, SQL: sql})
		}
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "--") {
			rest := strings.TrimSpace(strings.TrimPrefix(trimmed, "--"))
			if p, ok := strings.CutPrefix(rest, "project:"); ok {
				project = strings.TrimSpace(p)
			}
			continue
		}
		for {
			semi := strings.IndexByte(line, ';')
			if semi < 0 {
				current.WriteString(line)
				current.WriteByte('\n')
				break
			}
			current.WriteString(line[:semi])
			flush()
			line = line[semi+1:]
		}
	}
	flush()
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("workload: query file contains no statements")
	}
	if err := parse(w.Queries, cat); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return w, nil
}

// Open resolves the -workload / -schema / -queries flags the cmd binaries
// share: with either path set it loads a custom workload (named "custom")
// from the JSON schema and SQL files, otherwise it builds the named
// built-in one (job, wk1, wk2; case-insensitive).
func Open(name, schemaPath, queriesPath string) (*Workload, error) {
	if schemaPath != "" || queriesPath != "" {
		if schemaPath == "" || queriesPath == "" {
			return nil, fmt.Errorf("custom workloads need both -schema and -queries")
		}
		sf, err := os.Open(schemaPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = sf.Close() }() // read-only open; nothing to flush
		cat, err := LoadCatalog(sf)
		if err != nil {
			return nil, err
		}
		qf, err := os.Open(queriesPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = qf.Close() }() // read-only open; nothing to flush
		return LoadQueries(qf, cat, "custom")
	}
	switch strings.ToLower(name) {
	case "job":
		return JOB(), nil
	case "wk1":
		return WK1(), nil
	case "wk2":
		return WK2(), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
