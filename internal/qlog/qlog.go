// Package qlog is the persistent query-history layer: an append-only
// JSONL log of finished query attempts (with size-based rotation) and a
// measured-statistics store derived from it.
//
// A Record is the one description of a finished attempt. Every aw.Run*
// completion — success, budget trip, cancellation, or error — appends
// one, and the flight recorder's traces are chains of the same records.
// Replaying the log on startup rebuilds the measured-statistics store,
// closing the estimate→actual loop the paper leaves open: its Table 6
// card() estimates are "imprecise" (Section 6), but the engine measures
// true per-node cell counts on every execution, so later runs of the
// same workflow on the same collection can plan from measurements
// instead of guesses.
package qlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"awra/internal/obs"
)

// Outcome values for Record.Outcome.
const (
	OutcomeOK       = "ok"
	OutcomeCanceled = "canceled" // context canceled or deadline exceeded
	OutcomeBudget   = "budget"   // resource guardrail rejection
	OutcomeError    = "error"    // compile/planning/IO failure
	// OutcomeCacheHit marks a query answered from the serve layer's
	// result cache without executing. It is deliberately distinct from
	// OutcomeOK: cache hits scan nothing and finalize nothing, so
	// folding them into measured statistics would skew per-node
	// cardinalities toward zero (Store.Observe only folds OutcomeOK).
	OutcomeCacheHit = "cache_hit"
)

// NodeProfile is one measure node's estimate-vs-actual profile within
// a Record: the engine's published actuals (the same obs.NodeStats
// EXPLAIN ANALYZE shows) plus the node's content signature from
// core.NodeSignature — the key under which measured statistics are
// stored and looked up — and where the plan's estimate came from.
type NodeProfile struct {
	obs.NodeStats
	Sig       string `json:"sig,omitempty"`
	EstSource string `json:"est_source,omitempty"`
}

// Record is one finished query attempt, serialized as a single JSONL
// line. Fields mirror the in-flight registry's vocabulary so live and
// historical views of a query agree.
type Record struct {
	Time time.Time `json:"time"`
	// RequestID identifies the client request that issued the run. A
	// client may resend a request under the same ID, and history readers
	// treat a later record with the same ID as superseding the earlier
	// one — so a resent request logs one final outcome, not one per run.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the run's flight-recorder trace ID: the records sharing
	// it are one trace's attempt chain.
	TraceID      string `json:"trace_id,omitempty"`
	Label        string `json:"label,omitempty"`
	QueryFP      string `json:"query_fp,omitempty"`
	CollectionFP string `json:"collection_fp,omitempty"`
	Engine       string `json:"engine,omitempty"`
	SortKey      string `json:"sort_key,omitempty"`
	Outcome      string `json:"outcome"`
	Error        string `json:"error,omitempty"`
	// ServedFrom is "cache" when the result cache answered without an
	// engine run. Empty for ordinary runs.
	ServedFrom string `json:"served_from,omitempty"`
	// SourceTraceID links a cache hit back to the trace of the run that
	// computed the tables.
	SourceTraceID string `json:"source_trace_id,omitempty"`
	DurationUs    int64  `json:"duration_us"`
	// Phases maps span names (sort, scan, optimize, ...) to their
	// summed durations in microseconds for this query.
	Phases map[string]int64 `json:"phases_us,omitempty"`
	// EngineStats is the engine's run stats under the metric names
	// (records_scanned, cells_created, live_cells_hwm, ...). Its
	// spill_bytes key is the guard's SpillBytes below, which shadows it.
	obs.EngineStats
	// ResultRows, SpillBytes and CorruptRows are the resource guard's
	// accumulators for the attempt.
	ResultRows  int64         `json:"result_rows,omitempty"`
	SpillBytes  int64         `json:"spill_bytes,omitempty"`
	CorruptRows int64         `json:"corrupt_rows,omitempty"`
	Nodes       []NodeProfile `json:"nodes,omitempty"`
	// Span is the attempt's finalized span tree (query root), with
	// durations, attrs and per-span record progress. The flight recorder
	// always holds it; a history line carries it only when the recorder
	// pinned the trace, which is what restores pinned traces on replay.
	Span *obs.SpanSnapshot `json:"span,omitempty"`
}

const (
	// logBase is the base name of the history log's segments.
	logBase = "history"
	// DefaultMaxBytes rotates the active log segment past ~4 MiB.
	DefaultMaxBytes = 4 << 20
	// DefaultMaxFiles keeps the active segment plus two rotated ones.
	DefaultMaxFiles = 3
)

// Log is an append-only JSONL history log with size-based rotation:
// history.jsonl is active; on rotation it becomes history.1.jsonl
// (older segments shift to .2, ..., the oldest beyond MaxFiles-1 is
// deleted). Append is serialized by a mutex — history writes happen
// once per query, never on the hot path.
type Log struct {
	// MaxBytes triggers rotation when the active segment exceeds it.
	MaxBytes int64
	// MaxFiles bounds the total segment count (active + rotated).
	MaxFiles int

	mu   sync.Mutex
	dir  string
	f    *os.File
	size int64
}

// Open creates (if needed) the history directory and opens the active
// log segment for appending. A segment whose last line was torn by a
// crash mid-append is first terminated with a newline, so the next
// record starts a line of its own instead of being glued onto the
// fragment (replay then skips only the fragment).
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qlog: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logBase+".jsonl"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("qlog: %w", err)
	}
	size, err := terminateTornTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("qlog: %w", err)
	}
	return &Log{dir: dir, f: f, size: size, MaxBytes: DefaultMaxBytes, MaxFiles: DefaultMaxFiles}, nil
}

// terminateTornTail appends a newline to a non-empty segment that does
// not end in one and returns the segment's size.
func terminateTornTail(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil && err != io.EOF {
		return 0, err
	}
	if last[0] == '\n' {
		return st.Size(), nil
	}
	n, err := f.Write([]byte{'\n'})
	return st.Size() + int64(n), err
}

// Dir returns the history directory.
func (l *Log) Dir() string { return l.dir }

// Append writes one record as a JSONL line, rotating first if the
// active segment is full. Safe for concurrent use.
func (l *Log) Append(rec *Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("qlog: log is closed")
	}
	if l.size > 0 && l.size+int64(len(b)) > l.MaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(b)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("qlog: rotate: %w", err)
	}
	l.f = nil
	max := l.MaxFiles
	if max < 2 {
		max = 2
	}
	// Shift rotated segments up, dropping the oldest.
	os.Remove(l.segPath(max - 1))
	for i := max - 2; i >= 1; i-- {
		from := l.segPath(i)
		if _, err := os.Stat(from); err == nil {
			if err := os.Rename(from, l.segPath(i+1)); err != nil {
				return fmt.Errorf("qlog: rotate: %w", err)
			}
		}
	}
	if err := os.Rename(filepath.Join(l.dir, logBase+".jsonl"), l.segPath(1)); err != nil {
		return fmt.Errorf("qlog: rotate: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logBase+".jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("qlog: rotate: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

func (l *Log) segPath(i int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s.%d.jsonl", logBase, i))
}

// Close closes the active segment. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay streams every record in dir, oldest first (rotated segments
// before the active one), calling fn for each. Unparsable lines —
// e.g. a torn final line after a crash — are skipped, not fatal; their
// count is returned. A missing directory or missing log is not an
// error: replay of an empty history calls fn zero times.
func Replay(dir string, fn func(*Record)) (skipped int, err error) {
	var paths []string
	// Oldest rotated segment first. Segments are numbered contiguously
	// from 1, so stop at the first gap.
	var rotated []string
	for i := 1; ; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%s.%d.jsonl", logBase, i))
		if _, statErr := os.Stat(p); statErr != nil {
			break
		}
		rotated = append(rotated, p)
	}
	for i := len(rotated) - 1; i >= 0; i-- {
		paths = append(paths, rotated[i])
	}
	paths = append(paths, filepath.Join(dir, logBase+".jsonl"))
	for _, p := range paths {
		f, openErr := os.Open(p)
		if openErr != nil {
			if os.IsNotExist(openErr) {
				continue
			}
			return skipped, fmt.Errorf("qlog: %w", openErr)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			rec := &Record{}
			if json.Unmarshal(line, rec) != nil {
				skipped++
				continue
			}
			fn(rec)
		}
		scanErr := sc.Err()
		f.Close()
		if scanErr != nil {
			return skipped, fmt.Errorf("qlog: %s: %w", p, scanErr)
		}
	}
	return skipped, nil
}
