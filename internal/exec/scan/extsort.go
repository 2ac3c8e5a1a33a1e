package scan

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// This file is the repository's one external sort: rows never become
// model.Records. Each chunk precomputes the order-encoded comparator
// columns of every row — sort-key codes plus the input-coordinate
// tiebreak — into a flat uint64 array and sorts a permutation of row
// indices (no reflection, no record swaps — the 4-byte indices move,
// the 40-odd-byte rows don't). Comparisons, both in-chunk and in the
// k-way merge, walk only the precomputed columns: a few integer
// compares, never a row-byte decode or generalization call.
//
// The sort's product is a stream, not a file (Sorted): an input that
// fits one chunk is served as views over the row arena in sorted-index
// order, and a larger one spills its chunks as sorted run files — rows
// verbatim, checksums included — and is served from their merge.
// Key column 0 is also what a parallel plan partitions on, so the same
// read can divide the rows into parts that sort and stream
// independently (partRouter).
//
// Rows order by (sort-key codes, full input coordinates, original file
// position): a total order, the one a stable record sort under
// model.SortKey.RecordLess produces, and the one the engines'
// append-only cell path relies on.

// SortOptions tunes SortByKey and SortFileByKey.
type SortOptions struct {
	// ChunkRecords is the number of records held and sorted in memory at
	// a time. Zero selects a default sized for roughly 256 MB.
	ChunkRecords int
	// TempDir receives run files; empty uses the input's directory.
	TempDir string
	// Workers, when above 1, sorts and writes run files on that many
	// goroutines while the input keeps streaming; 0 or 1 writes each run
	// inline.
	Workers int
	// BatchBytes is the read-chunk size for the batched input readers
	// (0 = DefaultBatchBytes).
	BatchBytes int
	// Recorder, if non-nil, receives the run-generation span and the
	// standard sort metrics.
	Recorder *obs.Recorder
	// Guard, if non-nil, makes the sort cooperatively cancelable and
	// charges run files against the spill-byte budget.
	Guard *qguard.Guard
}

func (o SortOptions) chunk(diskRow int) int {
	if o.ChunkRecords > 0 {
		return o.ChunkRecords
	}
	if diskRow <= 0 {
		diskRow = 64
	}
	c := (256 << 20) / diskRow
	if c < 1024 {
		c = 1024
	}
	return c
}

// bsortSeq disambiguates run-file names across concurrent sorts in one
// process sharing a temp directory.
var bsortSeq atomic.Int64

// IdxSorter sorts permutations of row indices by precomputed key
// columns: row r's kp order-encoded columns sit at keys[r*kp : r*kp+kp],
// and only the 4-byte indices move. The external sort orders a run's
// rows with it and sortscan orders each flush batch's cells; the zero
// value is ready to use, and a caller that sorts many small sets keeps
// one so the counting-sort scratch is reused instead of reallocated.
type IdxSorter struct {
	tmp, cnt []int32
	lo, hi   []uint64
	passes   []radixPass
}

// radixPass is one counting-sort pass over the fused columns t0..t1,
// whose composite value range is rng.
type radixPass struct {
	t0, t1 int
	rng    uint64
}

// Sort orders idx, which must hold ascending row numbers on entry, by
// (key columns, row number): a total order, so the result does not
// depend on which of the two algorithms produced it. Narrow dense
// columns — dimension codes — take the LSD counting sort; anything
// else takes a comparison sort over the same columns, which never
// touches row bytes either.
func (s *IdxSorter) Sort(idx []int32, keys []uint64, kp int, guard *qguard.Guard) {
	if s.radix(idx, keys, kp, guard) {
		return
	}
	n := 0
	slices.SortFunc(idx, func(a, b int32) int {
		if n++; n&4095 == 0 {
			guard.CheckAbort()
		}
		ka := keys[int(a)*kp : int(a)*kp+kp]
		kb := keys[int(b)*kp : int(b)*kp+kp]
		for t := range ka {
			if ka[t] != kb[t] {
				return cmp.Compare(ka[t], kb[t])
			}
		}
		return cmp.Compare(a, b) // original position: reproduces SliceStable
	})
}

const (
	// radixMinRows is where the counting sort starts to beat the
	// comparison sort: BenchmarkIdxSorter measures them level at 32 rows
	// of two dense columns (0.8 µs each) and the counting sort 2.3×
	// ahead at 64, 11× at 4096; below, its range scan and counter passes
	// cost more than the few compares they replace.
	radixMinRows = 64
	// radixMaxRange caps a pass's counting range at 1<<21 counters
	// (8 MB of int32): dimension codes are dense small integers in every
	// realistic schema, and beyond this the counter memory and scatter
	// locality stop beating the comparison sort.
	radixMaxRange = 1 << 21
	// radixRangePerRow bounds a pass's counters by the rows they order:
	// clearing and prefix-summing counters is per-pass work no row
	// amortizes, so a few thousand rows never pay for a million counters.
	// 16 leaves every set of 1<<17 rows or more at radixMaxRange.
	radixRangePerRow = 16
)

// radix stable-sorts idx by the kp precomputed key columns using an LSD
// counting sort, one pass per column group starting from the least
// significant. The ascending start order supplies the original-position
// tiebreak and counting-sort stability preserves it through every
// pass, so the permutation is bit-identical to the comparison sort's.
// Returns false with idx untouched when the set is too small or a
// column's value range too wide to count cheaply.
func (s *IdxSorter) radix(idx []int32, keys []uint64, kp int, guard *qguard.Guard) bool {
	n := len(idx)
	if kp == 0 || n < radixMinRows {
		return false
	}
	maxRange := uint64(min(radixMaxRange, radixRangePerRow*n))
	first := keys[int(idx[0])*kp : int(idx[0])*kp+kp]
	lo := append(s.lo[:0], first...)
	hi := append(s.hi[:0], first...)
	s.lo, s.hi = lo, hi
	for _, r := range idx[1:] {
		row := keys[int(r)*kp : int(r)*kp+kp]
		for t, v := range row {
			if v < lo[t] {
				lo[t] = v
			}
			if v > hi[t] {
				hi[t] = v
			}
		}
	}
	for t := 0; t < kp; t++ {
		if hi[t]-lo[t] >= maxRange {
			return false
		}
	}
	// Fuse adjacent columns right-to-left while the composite range
	// stays countable: one scatter pass then orders several columns at
	// once. (Ranges are each ≤ 2^21, so the product test cannot
	// overflow.)
	passes := s.passes[:0]
	var widest uint64
	for t := kp - 1; t >= 0; {
		rng := hi[t] - lo[t] + 1
		t0 := t
		for t0 > 0 {
			r2 := hi[t0-1] - lo[t0-1] + 1
			if rng*r2 > maxRange {
				break
			}
			rng *= r2
			t0--
		}
		passes = append(passes, radixPass{t0: t0, t1: t, rng: rng})
		if rng > widest {
			widest = rng
		}
		t = t0 - 1
	}
	s.passes = passes
	if cap(s.tmp) < n {
		s.tmp = make([]int32, n)
	}
	if cap(s.cnt) < int(widest) {
		s.cnt = make([]int32, widest)
	}
	src, dst := idx, s.tmp[:n]
	for _, p := range passes {
		guard.CheckAbort()
		c := s.cnt[:p.rng]
		clear(c)
		val := func(row int32) uint64 {
			v := keys[int(row)*kp+p.t0] - lo[p.t0]
			for t := p.t0 + 1; t <= p.t1; t++ {
				v = v*(hi[t]-lo[t]+1) + (keys[int(row)*kp+t] - lo[t])
			}
			return v
		}
		for _, row := range src {
			c[val(row)]++
		}
		var sum int32
		for i := range c {
			v := c[i]
			c[i] = sum
			sum += v
		}
		for _, row := range src {
			b := val(row)
			dst[c[b]] = row
			c[b]++
		}
		src, dst = dst, src
	}
	if len(passes)%2 == 1 {
		copy(idx, src)
	}
	return true
}

// sortCol is one comparator column: dimension dim's code, generalized
// from the input's level to the part's by up, or taken as it is when up
// is nil.
type sortCol struct {
	dim      int
	from, to model.Level
	up       *model.Dimension
}

// sortCols is the full comparator column set: the sort key's parts
// followed by every input dimension not already pinned by a part at the
// input's own level, ascending. Ordering rows by (cols, original
// position) is the order (key codes, full input coordinates, position):
// a dimension covered by such a part is equal whenever that part is, so
// dropping it never changes a comparison. Only a part that generalizes
// looks its dimension up, so raw codes sort without a schema.
type sortCols []sortCol

func newSortCols(schema *model.Schema, key model.SortKey, from model.Gran, numDims int) sortCols {
	level := func(d int) model.Level {
		if from == nil {
			return 0
		}
		return from[d]
	}
	covered := make([]bool, numDims)
	for _, p := range key {
		if p.Lvl == level(p.Dim) {
			covered[p.Dim] = true
		}
	}
	parts := append([]model.SortPart{}, key...)
	for d := 0; d < numDims; d++ {
		if !covered[d] {
			parts = append(parts, model.SortPart{Dim: d, Lvl: level(d)})
		}
	}
	cols := make(sortCols, len(parts))
	for t, p := range parts {
		cols[t] = sortCol{dim: p.Dim, from: level(p.Dim), to: p.Lvl}
		if p.Lvl != cols[t].from {
			cols[t].up = schema.Dim(p.Dim)
		}
	}
	return cols
}

// appendRow appends the row's order-encoded comparator columns to dst.
func (cs sortCols) appendRow(dst []uint64, row Record) []uint64 {
	for _, c := range cs {
		v := row.Dim(c.dim)
		if c.up != nil {
			v = c.up.Up(c.from, c.to, v)
		}
		dst = append(dst, uint64(v)^(1<<63))
	}
	return dst
}

// loadRow overwrites dst (length len(cs)) with the row's columns.
func (cs sortCols) loadRow(dst []uint64, row Record) {
	for t, c := range cs {
		v := row.Dim(c.dim)
		if c.up != nil {
			v = c.up.Up(c.from, c.to, v)
		}
		dst[t] = uint64(v) ^ (1 << 63)
	}
}

// chunkState is one in-memory run: rows plus their precomputed keys.
type chunkState struct {
	rows []byte
	keys []uint64
	n    int
}

func newChunk(chunk, diskRow, kp int) *chunkState {
	return &chunkState{rows: make([]byte, 0, chunk*diskRow), keys: make([]uint64, 0, chunk*kp)}
}

// sortedBatchRows is how many row views a sorted source hands out per
// batch: enough to amortize the engines' per-batch bookkeeping, few
// enough that the view slice (24 bytes a row) stays cache-resident.
const sortedBatchRows = 4096

// Sorted is a record file sorted by a key, as SortByKey leaves it: one
// ordered stream of rows per part, served from memory when the file
// fit one chunk and from the parts' spilled runs when it did not.
// There is no sorted copy of the file in either case.
type Sorted struct {
	hdr     storage.Header // the rows' shape, as run files and sorted copies carry it
	cols    sortCols
	diskRow int
	emit    int // bytes of a row a source hands out: the payload, or the whole disk row
	opts    SortOptions
	stats   storage.SortStats
	mem     *chunkState // the whole input, when one chunk held it
	parts   []sortedPart
	// unsorted counts the in-memory parts not yet opened: the last index
	// sort to finish drops the key columns, which only sorting reads, so
	// the scan does not hold them.
	unsorted atomic.Int32
}

// sortedPart is one part's share of the input: its row numbers in the
// in-memory chunk, or its run files in input order.
type sortedPart struct {
	rows int64
	idx  []int32
	runs []string
}

// SortByKey reads a record file once and sorts it by the (normalized)
// sort key into parts ordered streams; see the file comment for the
// ordering contract, which holds within every part. Rows that agree on
// the key's leading part land in the same part, and parts are balanced
// by row count (see partRouter); one part is the plain external sort.
//
// from is the level each dimension's codes are at in the input: nil
// for a fact file, whose codes are all at base, and a relation's own
// granularity for a spooled intermediate. The schema is consulted only
// for key parts coarser than their input level, so a caller sorting raw
// codes by all columns passes nil schema, key and from.
//
// An input that fits one chunk stays in memory, and Open index-sorts a
// part's rows on the caller's goroutine, so the parts of a parallel
// plan sort concurrently. A larger input spills one sorted run per
// part and chunk (on opts.Workers goroutines when that is above 1) and
// Open merges the part's runs. The caller must Close the result.
func SortByKey(inPath string, schema *model.Schema, key model.SortKey, from model.Gran, parts int, opts SortOptions) (*Sorted, error) {
	return sortByKey(inPath, schema, key, from, parts, false, opts)
}

func sortByKey(inPath string, schema *model.Schema, key model.SortKey, from model.Gran, parts int, rawRows bool, opts SortOptions) (_ *Sorted, err error) {
	rec := opts.Recorder
	guard := opts.Guard
	in, err := Open(inPath, Options{BatchBytes: opts.BatchBytes, Guard: guard, RawRows: true})
	if err != nil {
		return nil, err
	}
	defer in.Close()
	hdr := in.Header()
	diskRow := hdr.DiskRowBytes()
	s := &Sorted{
		hdr:     storage.Header{NumDims: hdr.NumDims, NumMeasures: hdr.NumMeasures, Version: hdr.Version},
		cols:    newSortCols(schema, key, from, hdr.NumDims),
		diskRow: diskRow,
		emit:    hdr.RowBytes(),
		opts:    opts,
		parts:   make([]sortedPart, max(parts, 1)),
	}
	if rawRows {
		s.emit = diskRow
	}
	kp := len(s.cols)
	// Size the row arena and its key columns for the file, not for the
	// default 256 MB run: the header says how many rows can arrive.
	chunk := opts.chunk(diskRow)
	if hdr.Count < int64(chunk) {
		chunk = max(int(hdr.Count), 1)
	}
	if s.opts.TempDir == "" {
		s.opts.TempDir = filepath.Dir(inPath)
	}

	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		workErr error
		sem     chan struct{}
	)
	setErr := func(err error) {
		errMu.Lock()
		if workErr == nil {
			workErr = err
		}
		errMu.Unlock()
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return workErr
	}
	defer func() {
		wg.Wait()
		if err != nil {
			s.Close()
		}
	}()
	parallel := opts.Workers > 1
	if parallel {
		sem = make(chan struct{}, opts.Workers)
	}
	runsSpan := rec.Start(obs.SpanSortRuns)
	defer runsSpan.End()
	spillEvents := rec.Counter(obs.MSpillEvents)
	spillBytes := rec.Counter(obs.MSpillBytes)
	sortID := bsortSeq.Add(1)
	router := partRouter{parts: len(s.parts)}

	// writeRun index-sorts one part's rows of a chunk and spills them in
	// order, charging the spill budget.
	writeRun := func(cs *chunkState, idx []int32, path string, sorter *IdxSorter) (err error) {
		defer qguard.RecoverAbort(&err)
		sorter.Sort(idx, cs.keys, kp, guard)
		runBytes := int64(len(idx)) * int64(hdr.RowBytes())
		spillEvents.Add(1)
		spillBytes.Add(runBytes)
		if err := guard.NoteSpill(runBytes); err != nil {
			return err
		}
		w, err := storage.CreateRaw(path, s.hdr)
		if err != nil {
			return err
		}
		for _, i := range idx {
			if err := w.WriteRow(cs.rows[int(i)*diskRow : int(i)*diskRow+diskRow]); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}

	cur := newChunk(chunk, diskRow, kp)
	var sorter IdxSorter // the serial path's; parallel run writers bring their own
	spill := func() error {
		for p, idx := range router.split(cur.keys, kp, cur.n) {
			if len(idx) == 0 {
				continue
			}
			path := filepath.Join(s.opts.TempDir, fmt.Sprintf("awra-bsort-%d-%d-%d.tmp", os.Getpid(), sortID, s.stats.Runs))
			s.stats.Runs++
			s.parts[p].runs = append(s.parts[p].runs, path)
			s.parts[p].rows += int64(len(idx))
			if !parallel {
				if err := writeRun(cur, idx, path, &sorter); err != nil {
					return err
				}
				continue
			}
			if err := getErr(); err != nil {
				return err
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(cs *chunkState) {
				defer wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						setErr(fmt.Errorf("scan: run writer panic: %v", r))
					}
				}()
				if err := writeRun(cs, idx, path, new(IdxSorter)); err != nil {
					setErr(err)
				}
			}(cur)
		}
		if parallel {
			cur = newChunk(chunk, diskRow, kp) // the writers still read the old one
		} else {
			cur.rows, cur.keys, cur.n = cur.rows[:0], cur.keys[:0], 0
		}
		return nil
	}

	// Read batches, append rows and their encoded keys to the current
	// chunk, spill full chunks as sorted runs.
	for {
		batch, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			// A full chunk becomes runs only when a further row arrives:
			// input that exactly fills one chunk stays in memory.
			if cur.n >= chunk {
				if err := spill(); err != nil {
					return nil, err
				}
			}
			s.stats.Records++
			cur.rows = append(cur.rows, row...)
			cur.keys = s.cols.appendRow(cur.keys, row)
			cur.n++
		}
	}
	PublishReadStats(rec, in)

	if s.stats.Runs == 0 {
		// Everything fit one chunk: each part is one in-memory run, sorted
		// when it is opened.
		for p, idx := range router.split(cur.keys, kp, cur.n) {
			s.parts[p].idx, s.parts[p].rows = idx, int64(len(idx))
		}
		s.mem = cur
		s.stats.Runs = len(s.parts)
		s.unsorted.Store(int32(len(s.parts)))
	} else {
		if err := spill(); err != nil {
			return nil, err
		}
		wg.Wait()
		if err := getErr(); err != nil {
			return nil, err
		}
	}
	rec.Counter(obs.MSortRuns).Add(int64(s.stats.Runs))
	return s, nil
}

// Stats reports the rows read and the sorted runs formed: one per part
// in memory, one per part and chunk spilled.
func (s *Sorted) Stats() storage.SortStats { return s.stats }

// Rows returns the number of rows routed to a part.
func (s *Sorted) Rows(part int) int64 { return s.parts[part].rows }

// Runs returns the number of sorted runs behind a part: the one in
// memory, or the run files it spilled (none if no row reached it).
func (s *Sorted) Runs(part int) int {
	if s.mem != nil {
		return 1
	}
	return len(s.parts[part].runs)
}

// Close removes the sort's run files and drops its row arena. Sources
// opened from it must be closed first.
func (s *Sorted) Close() {
	s.mem = nil
	for i := range s.parts {
		for _, p := range s.parts[i].runs {
			os.Remove(p)
		}
		s.parts[i] = sortedPart{}
	}
}

// Open returns a part's rows as a batch source in sorted order. It does
// the part's share of the sorting — the index sort of an in-memory
// part, the opening of a spilled part's runs — so a caller times it as
// sort work. Parts may be opened concurrently; each at most once.
func (s *Sorted) Open(part int) (_ *SortedSource, err error) {
	p := &s.parts[part]
	src := &SortedSource{s: s, total: p.rows, views: make([]Record, 0, min(p.rows, sortedBatchRows))}
	if s.mem != nil {
		defer qguard.RecoverAbort(&err)
		new(IdxSorter).Sort(p.idx, s.mem.keys, len(s.cols), s.opts.Guard)
		if s.unsorted.Add(-1) == 0 {
			s.mem.keys = nil
		}
		src.idx = p.idx
		return src, nil
	}
	for i, path := range p.runs {
		r, err := Open(path, Options{BatchBytes: s.opts.BatchBytes, Guard: s.opts.Guard, RawRows: true})
		if err != nil {
			src.Close()
			return nil, err
		}
		m := &mergeSrc{r: r, key: make([]uint64, len(s.cols))}
		src.srcs = append(src.srcs, m)
		if err := m.load(s.cols); err != nil {
			src.Close()
			return nil, err
		}
		if !m.done {
			src.heap = append(src.heap, i)
		}
	}
	for i := len(src.heap)/2 - 1; i >= 0; i-- {
		src.siftDown(i)
	}
	return src, nil
}

// SortedSource streams one part of a Sorted in order. An in-memory part
// is served as views over the sort's row arena in sorted-index order; a
// spilled part as the k-way merge of its runs, straight from the heap.
type SortedSource struct {
	s     *Sorted
	total int64
	views []Record
	// In-memory part: the sorted row numbers and the read position.
	idx []int32
	pos int
	// Spilled part: one cursor per run and a heap of run indices ordered
	// by (head columns, run index) — the columns carry the
	// base-coordinate tiebreak, and run index is input order.
	srcs []*mergeSrc
	heap []int
	// stale marks a heap top whose head row went out as the last row of
	// its reader's batch: loading its successor recycles the buffer under
	// the views just returned, so it waits for the next call.
	stale bool
	cmps  int64
}

// TotalRecords returns the part's row count (the progress denominator).
func (m *SortedSource) TotalRecords() int64 { return m.total }

// NextBatch returns the next rows in order; (nil, nil) at the end. The
// views are valid until the next call.
func (m *SortedSource) NextBatch() ([]Record, error) {
	if err := m.s.opts.Guard.Err(); err != nil {
		return nil, err
	}
	out := m.views[:0]
	if mem := m.s.mem; mem != nil {
		rows, disk, emit := mem.rows, m.s.diskRow, m.s.emit
		end := min(m.pos+cap(out), len(m.idx))
		for _, i := range m.idx[m.pos:end] {
			out = append(out, rows[int(i)*disk:int(i)*disk+emit])
		}
		m.pos = end
	} else {
		if m.stale {
			m.stale = false
			if err := m.advance(); err != nil {
				return nil, err
			}
		}
		for len(m.heap) > 0 && len(out) < cap(out) {
			top := m.srcs[m.heap[0]]
			out = append(out, top.row[:m.s.emit])
			if top.pos >= len(top.batch) {
				m.stale = true
				break
			}
			if err := m.advance(); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// advance replaces the heap top's head row with its run's next one.
func (m *SortedSource) advance() error {
	top := m.srcs[m.heap[0]]
	if err := top.load(m.s.cols); err != nil {
		return err
	}
	if top.done {
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	if len(m.heap) > 0 {
		m.siftDown(0)
	}
	return nil
}

func (m *SortedSource) less(a, b int) bool {
	m.cmps++
	ka, kb := m.srcs[a].key, m.srcs[b].key
	for t := range ka {
		if ka[t] != kb[t] {
			return ka[t] < kb[t]
		}
	}
	return a < b
}

func (m *SortedSource) siftDown(i int) {
	h := m.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && m.less(h[l], h[small]) {
			small = l
		}
		if r < len(h) && m.less(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Close closes a spilled part's run readers and publishes the merge's
// head comparisons (the merge-cost metric).
func (m *SortedSource) Close() {
	for _, src := range m.srcs {
		src.r.Close()
	}
	if m.srcs != nil {
		m.s.opts.Recorder.Counter(obs.MHeapComparisons).Add(m.cmps)
	}
	m.srcs, m.heap, m.idx, m.cmps = nil, nil, nil, 0
}

// mergeSrc is one run's read cursor with its head row's comparator
// columns decoded.
type mergeSrc struct {
	r     *Reader
	batch []Record
	pos   int
	key   []uint64
	row   Record
	done  bool
}

func (s *mergeSrc) load(cols sortCols) error {
	if s.pos >= len(s.batch) {
		b, err := s.r.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			s.done = true
			return nil
		}
		s.batch, s.pos = b, 0
	}
	s.row = s.batch[s.pos]
	s.pos++
	cols.loadRow(s.key, s.row)
	return nil
}

// SortFileByKey external-sorts a record file by the (normalized) sort
// key into outPath, rows verbatim, checksums included: SortByKey's one
// part drained into a file. Run files go to opts.TempDir, or beside the
// output when that is empty.
func SortFileByKey(inPath, outPath string, schema *model.Schema, key model.SortKey, opts SortOptions) (storage.SortStats, error) {
	if opts.TempDir == "" {
		opts.TempDir = filepath.Dir(outPath)
	}
	s, err := sortByKey(inPath, schema, key, nil, 1, true, opts)
	if err != nil {
		return storage.SortStats{}, err
	}
	defer s.Close()
	stats := s.Stats()
	src, err := s.Open(0)
	if err != nil {
		return stats, err
	}
	defer src.Close()
	w, err := storage.CreateRaw(outPath, s.hdr)
	if err != nil {
		return stats, err
	}
	for {
		batch, err := src.NextBatch()
		if err != nil {
			w.Close()
			os.Remove(outPath)
			return stats, err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			if err := w.WriteRow(row); err != nil {
				w.Close()
				os.Remove(outPath)
				return stats, err
			}
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(outPath)
		return stats, err
	}
	return stats, nil
}

// partRouter divides a chunk's rows among the parts of a sort by key
// column 0, the unit a parallel plan partitions on: every row of a unit
// goes to one part, for the whole input. A chunk's new units are
// assigned greedily, longest processing time first — units descending
// by row count, each to the least-loaded part — which balances parts
// where plain unit hashing cannot (few distinct units). Loads carry
// over from chunk to chunk; a unit keeps the part it was first given.
// If the unit space explodes past maxRouteUnits, new units fall back to
// stateless hashing.
type partRouter struct {
	parts  int
	route  map[uint64]int32 // unit (order-encoded code) -> part
	loads  []int64
	hashed bool
	partOf []int32 // scratch: chunk row -> part
}

const maxRouteUnits = 1 << 20

// split returns each part's rows of a chunk as ascending row numbers —
// the start order IdxSorter.Sort requires.
func (rt *partRouter) split(keys []uint64, kp, n int) [][]int32 {
	out := make([][]int32, rt.parts)
	if rt.parts == 1 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		out[0] = idx
		return out
	}
	if rt.route == nil {
		rt.route, rt.loads = make(map[uint64]int32), make([]int64, rt.parts)
	}
	if !rt.hashed {
		rt.assign(keys, kp, n)
	}
	if cap(rt.partOf) < n {
		rt.partOf = make([]int32, n)
	}
	partOf, sizes := rt.partOf[:n], make([]int, rt.parts)
	for r := range partOf {
		u := keys[r*kp]
		p, ok := rt.route[u]
		if !ok {
			p = int32(mixUnit(u^(1<<63)) % uint64(rt.parts))
		}
		partOf[r] = p
		sizes[p]++
	}
	for p, size := range sizes {
		out[p] = make([]int32, 0, size)
	}
	for r, p := range partOf {
		out[p] = append(out[p], int32(r))
	}
	return out
}

// assign counts the chunk's rows per unit and routes the units not seen
// before.
func (rt *partRouter) assign(keys []uint64, kp, n int) {
	counts := make(map[uint64]int64)
	for r := 0; r < n; r++ {
		counts[keys[r*kp]]++
		if len(counts) > maxRouteUnits {
			rt.hashed = true // too many units to plan; hash instead
			return
		}
	}
	type unitCount struct {
		unit uint64
		n    int64
	}
	var fresh []unitCount
	for u, c := range counts {
		if p, ok := rt.route[u]; ok {
			rt.loads[p] += c
		} else {
			fresh = append(fresh, unitCount{u, c})
		}
	}
	if len(rt.route)+len(fresh) > maxRouteUnits {
		rt.hashed = true
		return
	}
	slices.SortFunc(fresh, func(a, b unitCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.unit, b.unit) // deterministic ties
	})
	for _, uc := range fresh {
		best := 0
		for p := 1; p < rt.parts; p++ {
			if rt.loads[p] < rt.loads[best] {
				best = p
			}
		}
		rt.route[uc.unit] = int32(best)
		rt.loads[best] += uc.n
	}
}

// mixUnit is SplitMix64's finalizer, so hashed routing is well
// distributed even for sequential unit codes.
func mixUnit(u uint64) uint64 {
	u ^= u >> 30
	u *= 0xbf58476d1ce4e5b9
	u ^= u >> 27
	u *= 0x94d049bb133111eb
	u ^= u >> 31
	return u
}
