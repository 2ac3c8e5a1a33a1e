// Package resultstore persists computed measure tables to disk and
// loads them back: one record file per measure (full-granularity codes
// plus the value) and a JSON manifest describing the measures and
// their granularities. It gives workflows a materialization layer —
// run an expensive workflow once, then slice, export, or join the
// results in later sessions without recomputation.
package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/storage"
)

// ErrCorrupt marks structural damage in a result directory — an
// unparsable manifest, a truncated or checksum-failing measure file —
// as opposed to transient I/O errors. Match with errors.Is; it is the
// same sentinel the storage layer uses, so callers need one check.
var ErrCorrupt = storage.ErrCorrupt

const manifestName = "awra-results.json"

// MeasureInfo describes one stored measure in the manifest.
type MeasureInfo struct {
	Name string `json:"name"`
	File string `json:"file"`
	// Domains lists the domain name per dimension (granularity), using
	// "ALL" for D_ALL components; validated against the schema on load.
	Domains []string `json:"domains"`
	Rows    int64    `json:"rows"`
}

// Manifest indexes a result directory.
type Manifest struct {
	// Dimensions lists the schema's dimension names, for validation.
	Dimensions []string      `json:"dimensions"`
	Measures   []MeasureInfo `json:"measures"`
}

// Save writes the tables into dir (created if needed) with a manifest.
// Measure names become file names, so they are sanitized. Save is
// transactional at the directory level: on any error the measure files
// written by this call are removed, and the manifest — written last,
// via a temp file and an atomic rename — never references files that
// were not fully written, so a failed Save cannot leave a directory
// that loads partially.
func Save(dir string, schema *model.Schema, tables map[string]*core.Table) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	var written []string
	defer func() {
		if err != nil {
			for _, p := range written {
				os.Remove(p)
			}
		}
	}()
	man := Manifest{}
	for i := 0; i < schema.NumDims(); i++ {
		man.Dimensions = append(man.Dimensions, schema.Dim(i).Name())
	}
	// Deterministic order.
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		tbl := tables[name]
		file := sanitize(name) + ".rec"
		info := MeasureInfo{Name: name, File: file, Rows: int64(len(tbl.Rows))}
		for d := 0; d < schema.NumDims(); d++ {
			info.Domains = append(info.Domains, schema.Dim(d).DomainName(tbl.Gran[d]))
		}
		path := filepath.Join(dir, file)
		w, err := storage.Create(path, schema.NumDims(), 1)
		if err != nil {
			return fmt.Errorf("resultstore: measure %q: %w", name, err)
		}
		written = append(written, path)
		rec := model.Record{Dims: make([]int64, schema.NumDims()), Ms: make([]float64, 1)}
		for _, k := range tbl.SortedKeys() {
			copy(rec.Dims, tbl.Codec.FullDecode(k))
			rec.Ms[0] = tbl.Rows[k]
			if err := w.Write(&rec); err != nil {
				w.Close()
				return fmt.Errorf("resultstore: measure %q: %w", name, err)
			}
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("resultstore: measure %q: %w", name, err)
		}
		man.Measures = append(man.Measures, info)
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	written = append(written, tmp)
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// ReadManifest loads and parses a result directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("resultstore: corrupt manifest: %v (%w)", err, ErrCorrupt)
	}
	return &man, nil
}

// Load reads every stored measure back, validating granularities
// against the schema.
func Load(dir string, schema *model.Schema) (map[string]*core.Table, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(man.Dimensions) != schema.NumDims() {
		return nil, fmt.Errorf("resultstore: manifest has %d dimensions, schema has %d",
			len(man.Dimensions), schema.NumDims())
	}
	for i, name := range man.Dimensions {
		if schema.Dim(i).Name() != name {
			return nil, fmt.Errorf("resultstore: dimension %d is %q in the manifest but %q in the schema",
				i, name, schema.Dim(i).Name())
		}
	}
	out := make(map[string]*core.Table, len(man.Measures))
	for _, info := range man.Measures {
		tbl, err := loadMeasure(dir, schema, info)
		if err != nil {
			return nil, fmt.Errorf("resultstore: measure %q: %w", info.Name, err)
		}
		out[info.Name] = tbl
	}
	return out, nil
}

func loadMeasure(dir string, schema *model.Schema, info MeasureInfo) (*core.Table, error) {
	if len(info.Domains) != schema.NumDims() {
		return nil, fmt.Errorf("granularity has %d components, schema has %d dimensions",
			len(info.Domains), schema.NumDims())
	}
	gran := make(model.Gran, schema.NumDims())
	for d, dom := range info.Domains {
		l, err := schema.Dim(d).LevelByName(dom)
		if err != nil {
			return nil, err
		}
		gran[d] = l
	}
	tbl, err := scan.EngineOptions{}.ReadTable(scan.FileInput(filepath.Join(dir, info.File)), schema, gran)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %s: %w", info.File, err)
	}
	if int64(len(tbl.Rows)) != info.Rows {
		return nil, fmt.Errorf("expected %d rows, loaded %d (duplicate or missing regions)",
			info.Rows, len(tbl.Rows))
	}
	return tbl, nil
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
