package scan

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// EngineOptions is the option block every engine embeds: where its
// temporary files go, how it reads and sorts its input, and what
// observes and guards it. Engines open, sort and name temporary files
// through its methods, so all of them treat each knob the same way.
type EngineOptions struct {
	// TempDir receives sort runs, single-scan spills and the relational
	// baseline's spooled intermediates; empty uses os.TempDir().
	TempDir string
	// ReadBatchBytes bounds one batched file read (0 =
	// DefaultBatchBytes): the sort's arena fill reads this much, a scan's
	// NextBatch at most one batch of it. In-memory input batches by
	// record count. Production callers leave it 0; tests shrink it to
	// put chunk boundaries where they want them.
	ReadBatchBytes int
	// ChunkRecords is how many records an external sort holds in memory
	// at a time (0 = a default sized for roughly 256 MB).
	ChunkRecords int
	// Recorder, if non-nil, receives the run's phase spans; the run's
	// numbers travel in the returned Result.Stats instead. A nil one is
	// replaced by a private recorder (WithDefaults); hot loops never
	// touch it.
	Recorder *obs.Recorder
	// Guard, if non-nil, enforces cancellation, resource budgets and the
	// degraded-read policy. Checks run at batch and phase boundaries, so
	// a budget may overshoot slightly before the run aborts.
	Guard *qguard.Guard
}

// Result is what every engine returns: the workflow's output tables by
// measure name (hidden measures dropped) and the run's stats, which the
// engine fills but never publishes.
type Result struct {
	Tables map[string]*core.Table
	Stats  obs.EngineStats
}

// WithDefaults returns the options with a private recorder in place of
// a nil one.
func (o EngineOptions) WithDefaults() EngineOptions {
	if o.Recorder == nil {
		o.Recorder = obs.New()
	}
	return o
}

// Open opens the input for a scan, in the options' read batches and
// under their guard.
func (o EngineOptions) Open(in Input) (BatchSource, error) {
	return in.Open(Options{BatchBytes: o.ReadBatchBytes, Guard: o.Guard})
}

// SortStream sorts the input by key under one "sort" span, annotated
// with the key and the runs formed, and opens the sorted rows as one
// stream. Closing the stream also removes the sort's run files. It
// returns the sort's share of the run's stats: its duration, runs, run
// files and input read.
func (o EngineOptions) SortStream(in Input, schema *model.Schema, key model.SortKey, from model.Gran) (BatchSource, obs.EngineStats, error) {
	span := o.Recorder.Start(obs.SpanSort)
	defer span.End()
	span.SetAttr("key", key.String(schema))
	so := o
	so.Recorder = o.Recorder.At(span)
	sorted, err := SortByKey(in, schema, key, from, 1, so)
	if err != nil {
		return nil, obs.EngineStats{}, err
	}
	src, err := sorted.Open(0)
	if err != nil {
		sorted.Close()
		return nil, obs.EngineStats{}, err
	}
	span.SetAttr("runs", fmt.Sprint(sorted.Stats().Runs))
	span.End()
	st := sorted.EngineStats()
	st.SortTime = span.Duration()
	return sortedStream{src, sorted}, st, nil
}

// sortedStream is a sorted input's one stream; closing it releases the
// sort too.
type sortedStream struct {
	*SortedSource
	sorted *Sorted
}

func (s sortedStream) Close() error {
	err := s.SortedSource.Close()
	s.sorted.Close()
	return err
}

// ScanPhase is an engine's scan phase over an opened source, under one
// "scan" span carrying the source's row count as its total. It hands
// kernel the rows in slices of at most stride, and before each slice
// checks cancellation and, when live is non-nil, the live-cell budget
// against live(), keeping the span's progress current. On every return
// it ends the span, with the rows scanned as its records attribute,
// and adds the rows the kernel took, the span's duration and the
// source's own tallies (a file's chunks, a merge's heap comparisons) to
// st.
func (o EngineOptions) ScanPhase(src BatchSource, stride int, live func() int64, kernel func(rows []Record) error, st *obs.EngineStats) error {
	span := o.Recorder.Start(obs.SpanScan)
	span.SetTotal(src.Header().Count)
	var records int64
	defer func() {
		span.SetDone(records)
		span.SetAttr("records", fmt.Sprint(records))
		span.End()
		st.Records += records
		st.ScanTime += span.Duration()
		st.Add(sourceStats(src))
	}()
	for {
		batch, err := src.NextBatch()
		if err != nil || batch == nil {
			return err
		}
		for len(batch) > 0 {
			span.SetDone(records)
			if err := o.Guard.Err(); err != nil {
				return err
			}
			if live != nil {
				if err := o.Guard.NoteLiveCells(live()); err != nil {
					return err
				}
			}
			rows := batch[:min(stride, len(batch))]
			batch = batch[len(rows):]
			if err := kernel(rows); err != nil {
				return err
			}
			records += int64(len(rows))
		}
	}
}

// tempSeq keeps temporary files of concurrent queries sharing a
// directory apart.
var tempSeq atomic.Int64

// TempPath names a new temporary file in TempDir (os.TempDir() when
// empty); kind says what it holds. The caller creates and removes it.
func (o EngineOptions) TempPath(kind string) string {
	dir := o.TempDir
	if dir == "" {
		dir = os.TempDir()
	}
	return filepath.Join(dir, fmt.Sprintf("awra-%s-%d-%d.tmp", kind, os.Getpid(), tempSeq.Add(1)))
}

// SweepTemp removes the files TempPath named in dir (os.TempDir() when
// empty) for processes no longer running — what a crashed run leaves
// behind, since only a clean exit removes its own — and returns how
// many it removed. Files of running processes, this one's included, and
// every other name are left alone.
func SweepTemp(dir string) (int, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if pid, ok := tempPID(e.Name()); ok && !e.IsDir() && !running(pid) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// tempPID returns the PID in a name TempPath gives,
// awra-<kind>-<pid>-<seq>.tmp, where kind may itself hold dashes.
func tempPID(name string) (int, bool) {
	rest, prefixed := strings.CutPrefix(name, "awra-")
	rest, suffixed := strings.CutSuffix(rest, ".tmp")
	i := strings.LastIndexByte(rest, '-')             // before seq
	j := strings.LastIndexByte(rest[:max(i, 0)], '-') // before pid
	if !prefixed || !suffixed || j <= 0 {
		return 0, false
	}
	pid, err := strconv.Atoi(rest[j+1 : i])
	if _, serr := strconv.ParseUint(rest[i+1:], 10, 64); err != nil || serr != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// running reports whether a process with the PID exists: signal 0
// checks without delivering anything, and a refusal means it exists
// under another user.
func running(pid int) bool {
	p, err := os.FindProcess(pid)
	if err == nil {
		err = p.Signal(syscall.Signal(0))
	}
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Composites is the combine phase of the engines that materialize their
// basic measures first: it computes every composite measure into tables
// in the workflow's topological order, under one "combine" span. An
// order-insensitive roll-up whose source has a cell stream in cells
// reads that stream instead of the source's table. It charges
// non-hidden rows to the guard, adds each node's stats, the cells
// finalized and the phase's duration to st, and returns the workflow's
// output tables by name.
func (o EngineOptions) Composites(c *core.Compiled, tables []*core.Table, cells []func(yield func(model.Key, float64)), st *obs.EngineStats) (map[string]*core.Table, error) {
	span := o.Recorder.Start(obs.SpanCombine)
	defer span.End()
	for i, m := range c.Measures {
		if m.Kind == core.KindBasic {
			continue
		}
		if err := o.Guard.Err(); err != nil {
			return nil, err
		}
		var tbl *core.Table
		if src := m.Sources[0]; m.Kind == core.KindRollup && m.Agg.OrderInsensitive() && cells != nil && cells[src] != nil {
			tbl = core.RollUp(c, m, cells[src])
		} else {
			var err error
			if tbl, err = core.ComputeComposite(c, m, tables); err != nil {
				return nil, fmt.Errorf("combining %q: %w", m.Name, err)
			}
		}
		st.CellsFinalized += int64(len(tbl.Rows))
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(len(tbl.Rows))}
		for _, si := range m.Sources {
			if tables[si] != nil {
				ns.RecordsIn += int64(len(tables[si].Rows))
			}
		}
		if !m.Hidden {
			ns.RecordsOut = int64(len(tbl.Rows))
			if err := o.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
				return nil, err
			}
		}
		st.Nodes = append(st.Nodes, ns)
		tables[i] = tbl
	}
	span.End()
	st.CombineTime += span.Duration()
	outputs := make(map[string]*core.Table)
	for _, name := range c.Outputs() {
		i, _ := c.Index(name)
		outputs[name] = tables[i]
	}
	return outputs, nil
}

// ReadTable reads a measure table stored as rows of full-length region
// codes and one value — a result store's measure file, or a relational
// baseline spool — into a table of granularity gran.
func (o EngineOptions) ReadTable(in Input, s *model.Schema, gran model.Gran) (*core.Table, error) {
	src, err := o.Open(in)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	nd := s.NumDims()
	if h := src.Header(); h.NumDims != nd || h.NumMeasures != 1 {
		return nil, fmt.Errorf("scan: table rows have %d dimensions and %d measures, want %d and 1 (%w)",
			h.NumDims, h.NumMeasures, nd, storage.ErrCorrupt)
	}
	tbl := core.NewTable(s, gran)
	codes := make([]int64, 0, nd)
	for {
		batch, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return tbl, nil
		}
		for _, row := range batch {
			codes = codes[:0]
			for d := 0; d < nd; d++ {
				if gran[d] != s.Dim(d).ALL() {
					codes = append(codes, row.Dim(d))
				}
			}
			k, err := tbl.Codec.FromCodesChecked(codes)
			if err != nil {
				return nil, err
			}
			tbl.Rows[k] = row.Measure(nd, 0)
		}
	}
}
