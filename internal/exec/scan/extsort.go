package scan

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// This file is the byte-level external sort under sortscan: rows never
// become model.Records. Each chunk precomputes the order-encoded
// comparator columns of every row — sort-key codes plus the base-dim
// tiebreak — into a flat uint64 array, sorts a permutation of row
// indices (no reflection, no record swaps — the 8-byte indices move,
// the 70-odd-byte rows don't), and writes the rows to the run file
// verbatim, checksums included. Comparisons, both in-chunk and in the
// k-way merge, walk only the precomputed columns: a few integer
// compares, never a row-byte decode or generalization call.
//
// The output reproduces storage.SortFile's order bit-identically:
// rows order by (sort-key codes, full base coordinates, original file
// position) — the same total order SliceStable plus the run-index
// merge tiebreak induces — so the engines' tables cannot tell the two
// sorts apart.

// SortOptions tunes SortFileByKey.
type SortOptions struct {
	// ChunkRecords is the number of records sorted in memory per run.
	// Zero selects a default sized for roughly 256 MB runs.
	ChunkRecords int
	// TempDir receives run files; empty uses the output's directory.
	TempDir string
	// Parallel sorts and writes run files on Workers goroutines while
	// the input keeps streaming.
	Parallel bool
	// Workers bounds the run-sorting goroutines (0 = GOMAXPROCS).
	Workers int
	// BatchBytes is the read-chunk size for the batched input readers
	// (0 = DefaultBatchBytes).
	BatchBytes int
	// Recorder, if non-nil, receives run/merge spans and the standard
	// sort metrics.
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

// sortCols is the full comparator column set: the sort key's parts
// followed by every base dimension not already pinned by a level-0 key
// part, ascending. Ordering rows by (cols, original position) equals
// the storage.SortFile order (key codes, full base coordinates,
// position): a base dimension covered by a level-0 part is equal
// whenever that part is, so dropping it never changes a comparison.
type sortCols struct {
	parts []model.SortPart
	dims  []*model.Dimension
}

func newSortCols(schema *model.Schema, key model.SortKey, numDims int) sortCols {
	covered := make([]bool, numDims)
	for _, p := range key {
		if p.Lvl == 0 {
			covered[p.Dim] = true
		}
	}
	parts := append([]model.SortPart{}, key...)
	for d := 0; d < numDims; d++ {
		if !covered[d] {
			parts = append(parts, model.SortPart{Dim: d, Lvl: 0})
		}
	}
	c := sortCols{parts: parts, dims: make([]*model.Dimension, len(parts))}
	for t, p := range parts {
		c.dims[t] = schema.Dim(p.Dim)
	}
	return c
}

// appendRow appends the row's order-encoded comparator columns to dst.
func (c sortCols) appendRow(dst []uint64, row Record) []uint64 {
	for t, p := range c.parts {
		v := row.Dim(p.Dim)
		if p.Lvl != 0 {
			v = c.dims[t].Up(0, p.Lvl, v)
		}
		dst = append(dst, uint64(v)^(1<<63))
	}
	return dst
}

// loadRow overwrites dst (length len(c.parts)) with the row's columns.
func (c sortCols) loadRow(dst []uint64, row Record) {
	for t, p := range c.parts {
		v := row.Dim(p.Dim)
		if p.Lvl != 0 {
			v = c.dims[t].Up(0, p.Lvl, v)
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

// SortFileByKey external-sorts a record file by the (normalized) sort
// key, writing rows to the output verbatim. See the file comment for
// the ordering contract.
func SortFileByKey(inPath, outPath string, schema *model.Schema, key model.SortKey, opts SortOptions) (storage.SortStats, error) {
	var stats storage.SortStats
	rec := opts.Recorder
	guard := opts.Guard
	in, err := Open(inPath, Options{BatchBytes: opts.BatchBytes, Guard: guard, RawRows: true})
	if err != nil {
		return stats, err
	}
	defer in.Close()
	hdr := in.Header()
	diskRow := hdr.DiskRowBytes()
	payloadRow := hdr.RowBytes()
	cols := newSortCols(schema, key, hdr.NumDims)
	kp := len(cols.parts)
	// Size the row arena and its key columns for the file, not for the
	// default 256 MB run: the header says how many rows can arrive.
	chunk := opts.chunk(diskRow)
	if hdr.Count < int64(chunk) {
		chunk = max(int(hdr.Count), 1)
	}
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = filepath.Dir(outPath)
	}

	var (
		runPaths []string
		runSeq   int
		wg       sync.WaitGroup
		errMu    sync.Mutex
		workErr  error
		sem      chan struct{}
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
		for _, p := range runPaths {
			os.Remove(p)
		}
	}()
	if opts.Parallel {
		w := opts.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		sem = make(chan struct{}, w)
	}
	runsSpan := rec.Start(obs.SpanSortRuns)
	spillEvents := rec.Counter(obs.MSpillEvents)
	spillBytes := rec.Counter(obs.MSpillBytes)
	sortID := bsortSeq.Add(1)

	// writeRun index-sorts one chunk (private stride counter per call)
	// and spills its rows in order, charging the spill budget.
	writeRun := func(cs *chunkState, path string) (err error) {
		defer qguard.RecoverAbort(&err)
		idx := make([]int32, cs.n)
		for i := range idx {
			idx[i] = int32(i)
		}
		new(IdxSorter).Sort(idx, cs.keys, kp, guard)
		runBytes := int64(cs.n) * int64(payloadRow)
		spillEvents.Add(1)
		spillBytes.Add(runBytes)
		if err := guard.NoteSpill(runBytes); err != nil {
			return err
		}
		w, err := storage.CreateRaw(path, storage.Header{
			NumDims: hdr.NumDims, NumMeasures: hdr.NumMeasures, Version: hdr.Version,
		})
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

	cur := &chunkState{rows: make([]byte, 0, chunk*diskRow), keys: make([]uint64, 0, chunk*kp)}
	flushRun := func() error {
		if cur.n == 0 {
			return nil
		}
		p := filepath.Join(tempDir, fmt.Sprintf("awra-bsort-%d-%d-%d.tmp", os.Getpid(), sortID, runSeq))
		runSeq++
		runPaths = append(runPaths, p)
		if !opts.Parallel {
			err := writeRun(cur, p)
			cur.rows, cur.keys, cur.n = cur.rows[:0], cur.keys[:0], 0
			return err
		}
		if err := getErr(); err != nil {
			return err
		}
		cs := cur
		cur = &chunkState{rows: make([]byte, 0, chunk*diskRow), keys: make([]uint64, 0, chunk*kp)}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					setErr(fmt.Errorf("scan: run writer panic: %v", r))
				}
			}()
			if err := writeRun(cs, p); err != nil {
				setErr(err)
			}
		}()
		return nil
	}

	// Phase 1: read batches, append rows and their encoded keys to the
	// current chunk, spill full chunks as sorted runs.
	for {
		batch, err := in.NextBatch()
		if err != nil {
			return stats, err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			// A full chunk becomes a run only when a further row arrives:
			// input that exactly fills one chunk keeps the single-run
			// fast path below.
			if cur.n >= chunk {
				if err := flushRun(); err != nil {
					return stats, err
				}
			}
			stats.Records++
			cur.rows = append(cur.rows, row...)
			cur.keys = cols.appendRow(cur.keys, row)
			cur.n++
		}
	}

	outHdr := storage.Header{NumDims: hdr.NumDims, NumMeasures: hdr.NumMeasures, Version: hdr.Version}

	// Single-run fast path: everything fit in one chunk; sort it and
	// write the output directly.
	if len(runPaths) == 0 {
		var sortErr error
		idx := make([]int32, cur.n)
		for i := range idx {
			idx[i] = int32(i)
		}
		func() {
			defer qguard.RecoverAbort(&sortErr)
			new(IdxSorter).Sort(idx, cur.keys, kp, guard)
		}()
		if sortErr != nil {
			return stats, sortErr
		}
		// The sorted output is disk the query consumed even without
		// spilled runs; charge it so MaxSpillBytes bounds total sort I/O.
		if err := guard.NoteSpill(int64(cur.n) * int64(payloadRow)); err != nil {
			return stats, err
		}
		w, err := storage.CreateRaw(outPath, outHdr)
		if err != nil {
			return stats, err
		}
		for _, i := range idx {
			if err := w.WriteRow(cur.rows[int(i)*diskRow : int(i)*diskRow+diskRow]); err != nil {
				w.Close()
				os.Remove(outPath)
				return stats, err
			}
		}
		if err := w.Close(); err != nil {
			os.Remove(outPath)
			return stats, err
		}
		stats.Runs = 1
		runsSpan.End()
		rec.Counter(obs.MSortRuns).Add(1)
		return stats, nil
	}

	if err := flushRun(); err != nil {
		return stats, err
	}
	wg.Wait()
	runsSpan.End()
	if err := getErr(); err != nil {
		return stats, err
	}
	stats.Runs = len(runPaths)
	rec.Counter(obs.MSortRuns).Add(int64(stats.Runs))
	if err := guard.NoteSpill(stats.Records * int64(payloadRow)); err != nil {
		return stats, err
	}

	// Phase 2: k-way merge of the runs, comparing precomputed head
	// keys. Run readers carry the guard, so the merge observes
	// cancellation through their per-batch checks.
	mergeSpan := rec.Start(obs.SpanMerge)
	mergeSpan.SetAttr("runs", fmt.Sprint(len(runPaths)))
	cmps, err := mergeRuns(runPaths, outPath, outHdr, cols, opts, guard)
	rec.Counter(obs.MHeapComparisons).Add(cmps)
	mergeSpan.End()
	if err != nil {
		os.Remove(outPath)
		return stats, err
	}
	return stats, nil
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

// mergeRuns merges sorted runs into outPath, returning the number of
// head comparisons (the merge-cost metric).
func mergeRuns(runPaths []string, outPath string, outHdr storage.Header, cols sortCols, opts SortOptions, guard *qguard.Guard) (int64, error) {
	kp := len(cols.parts)
	srcs := make([]*mergeSrc, 0, len(runPaths))
	defer func() {
		for _, s := range srcs {
			s.r.Close()
		}
	}()
	var heapIdx []int
	for i, p := range runPaths {
		r, err := Open(p, Options{BatchBytes: opts.BatchBytes, Guard: guard, RawRows: true})
		if err != nil {
			return 0, err
		}
		s := &mergeSrc{r: r, key: make([]uint64, kp)}
		srcs = append(srcs, s)
		if err := s.load(cols); err != nil {
			return 0, err
		}
		if !s.done {
			heapIdx = append(heapIdx, i)
		}
	}

	var cmps int64
	// less orders heap entries by (head columns, run index) — the
	// columns carry the base-coordinate tiebreak, and run index
	// reproduces the stable merge of storage's heap.
	less := func(a, b int) bool {
		cmps++
		sa, sb := srcs[a], srcs[b]
		for t := 0; t < kp; t++ {
			if sa.key[t] != sb.key[t] {
				return sa.key[t] < sb.key[t]
			}
		}
		return a < b
	}
	siftDown := func(h []int, i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := len(heapIdx)/2 - 1; i >= 0; i-- {
		siftDown(heapIdx, i)
	}

	w, err := storage.CreateRaw(outPath, outHdr)
	if err != nil {
		return cmps, err
	}
	for len(heapIdx) > 0 {
		top := heapIdx[0]
		if err := w.WriteRow(srcs[top].row); err != nil {
			w.Close()
			return cmps, err
		}
		if err := srcs[top].load(cols); err != nil {
			w.Close()
			return cmps, err
		}
		if srcs[top].done {
			heapIdx[0] = heapIdx[len(heapIdx)-1]
			heapIdx = heapIdx[:len(heapIdx)-1]
		}
		if len(heapIdx) > 0 {
			siftDown(heapIdx, 0)
		}
	}
	return cmps, w.Close()
}
