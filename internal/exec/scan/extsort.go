package scan

import (
	"cmp"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync/atomic"

	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// This file is the repository's one external sort: rows never become
// model.Records. Each chunk precomputes the order-encoded comparator
// columns of every row — sort-key codes plus the input-coordinate
// tiebreak — packed by a KeyPacker into the bits the chunk's values span
// (one uint64 word a row for Q1's five columns), and sorts a permutation
// of row indices by those words (no reflection, no record swaps — the
// 4-byte indices move, the 40-odd-byte rows don't). A chunk's bounds
// come from its rows' raw codes, taken as the chunk is read; the level
// functions are monotone, so a generalized column's bounds are its raw
// bounds generalized. The k-way merge of spilled runs compares unpacked
// columns, which do not depend on a chunk's bounds. Comparisons, both
// in-chunk and in the merge, walk only the precomputed words: a few
// integer compares, never a row-byte decode or generalization call.
//
// The sort's product is a stream, not a file (Sorted): an input that
// fits one chunk is served as views over the row arena in sorted-index
// order, and a larger one spills its chunks as sorted run files — rows
// verbatim, checksums included — and is served from their merge.
// Comparator column 0 is also what a parallel plan partitions on, so the
// same read can divide the rows into parts that sort and stream
// independently (partRouter).
//
// Rows order by (sort-key codes, full input coordinates, original input
// position): a total order, the one a stable record sort under
// model.SortKey.RecordLess produces, and the one the engines'
// append-only cell path relies on.

// SortOptions is EngineOptions under the older name that callers of
// SortFileByKey still use. The sort reads its TempDir, ReadBatchBytes,
// ChunkRecords, Recorder (the run-generation span) and Guard
// (cancellation and the spill-byte budget).
type SortOptions = EngineOptions

// chunk is how many rows of diskRow bytes the sort holds in memory.
func (o EngineOptions) chunk(diskRow int) int {
	if o.ChunkRecords > 0 {
		return o.ChunkRecords
	}
	if diskRow <= 0 {
		diskRow = 64
	}
	return max((256<<20)/diskRow, 1024)
}

// IdxSorter sorts permutations of row indices by precomputed key
// words: row r's kp words sit at keys[r*kp : r*kp+kp], and only the
// 4-byte indices move. The external sort orders a run's rows with it and
// sortscan orders each flush batch's cells, both by KeyPacker words; the
// zero value is ready to use, and a caller that sorts many small sets
// keeps one so the counting-sort scratch is reused instead of
// reallocated.
type IdxSorter struct {
	tmp, cnt []int32
	lo, hi   []uint64
	digits   []radixDigit
	passes   []radixPass
}

// radixDigit is one counted field: bits shift and up of column t's
// offset value (key - lo), masked to rng values. A column narrow enough
// to count whole is one digit with shift 0 and no mask.
type radixDigit struct {
	t         int
	lo        uint64
	shift     uint
	mask, rng uint64
}

// radixPass is one counting-sort pass over the fused digits d0..d1-1,
// least significant first, whose composite value range is rng.
type radixPass struct {
	d0, d1 int
	rng    uint64
}

// Sort orders idx, which must hold ascending row numbers on entry, by
// (key columns, row number): a total order, so the result does not
// depend on which of the two algorithms produced it. Sets large enough
// to amortize counting take the LSD counting sort, over as many
// cache-sized digits as their columns' ranges need; the rest take a
// comparison sort over the same columns, which never touches row bytes
// either.
func (s *IdxSorter) Sort(idx []int32, keys []uint64, kp int, guard *qguard.Guard) {
	if !s.radix(idx, keys, kp, guard) {
		compareSort(idx, keys, kp, guard)
	}
}

// compareSort is Sort's comparison sort.
func compareSort(idx []int32, keys []uint64, kp int, guard *qguard.Guard) {
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
	// radixMaxRange caps a pass's counting range at 1<<16 counters
	// (256 KB of int32), which stay cache-resident while the pass
	// scatters; a wider column is counted in digits of up to 16 bits.
	// Q1's 200k-row sort (BenchmarkIdxSorter's q1 set) runs about 1.4×
	// as fast under it as under a cap of 1<<21, with a sixth of the
	// scratch.
	radixMaxRange = 1 << 16
	// radixRangePerRow bounds a pass's counters by the rows they order:
	// clearing and prefix-summing counters is per-pass work no row
	// amortizes, so a few hundred rows never pay for 65,536 counters.
	// 16 leaves every set of 4096 rows or more at radixMaxRange.
	radixRangePerRow = 16
)

// radix stable-sorts idx by the kp precomputed key columns using an LSD
// counting sort when that is cheaper than comparing, and reports
// whether it did; idx is untouched when it did not: the set is too
// small, or its columns need more passes than a comparison sort of it
// costs.
func (s *IdxSorter) radix(idx []int32, keys []uint64, kp int, guard *qguard.Guard) bool {
	n := len(idx)
	if kp == 0 || n < radixMinRows {
		return false
	}
	s.bounds(idx, keys, kp)
	if s.plan(kp, uint64(min(radixMaxRange, radixRangePerRow*n))) > radixMaxPasses(n) {
		return false
	}
	s.count(idx, keys, kp, guard)
	return true
}

// bounds sets s.lo and s.hi to each column's least and greatest value
// over the rows of idx.
func (s *IdxSorter) bounds(idx []int32, keys []uint64, kp int) {
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
}

// plan lays the columns' ranges, from s.lo and s.hi, out as counting
// passes of at most maxRange counters each, and returns how many. A
// constant column orders nothing and gets no digit; a column whose
// range fits maxRange is one digit; a wider one is split into digits of
// the largest power of two that fits, lowest first. Adjacent digits
// fuse into one pass while their composite range stays within maxRange
// (each is at most maxRange, so the product test cannot overflow).
func (s *IdxSorter) plan(kp int, maxRange uint64) int {
	width := uint(bits.Len64(maxRange) - 1)
	digits := s.digits[:0]
	for t := kp - 1; t >= 0; t-- {
		lo, span := s.lo[t], s.hi[t]-s.lo[t]
		if span < maxRange {
			if span > 0 {
				digits = append(digits, radixDigit{t: t, lo: lo, mask: ^uint64(0), rng: span + 1})
			}
			continue
		}
		for shift := uint(0); span>>shift != 0; shift += width {
			d := radixDigit{t: t, lo: lo, shift: shift, mask: 1<<width - 1, rng: 1 << width}
			if top := span >> shift; top < d.rng {
				d.mask, d.rng = ^uint64(0), top+1
			}
			digits = append(digits, d)
		}
	}
	passes := s.passes[:0]
	for d0 := 0; d0 < len(digits); {
		rng, d1 := digits[d0].rng, d0+1
		for d1 < len(digits) && rng*digits[d1].rng <= maxRange {
			rng *= digits[d1].rng
			d1++
		}
		passes = append(passes, radixPass{d0: d0, d1: d1, rng: rng})
		d0 = d1
	}
	s.digits, s.passes = digits, passes
	return len(passes)
}

// count runs the planned passes over idx, least significant first. The
// ascending start order supplies the original-position tiebreak and
// counting-sort stability preserves it through every pass, so the
// permutation is bit-identical to the comparison sort's.
func (s *IdxSorter) count(idx []int32, keys []uint64, kp int, guard *qguard.Guard) {
	n := len(idx)
	if cap(s.tmp) < n {
		s.tmp = make([]int32, n)
	}
	var widest uint64
	for _, p := range s.passes {
		widest = max(widest, p.rng)
	}
	if cap(s.cnt) < int(widest) {
		s.cnt = make([]int32, widest)
	}
	src, dst := idx, s.tmp[:n]
	for _, p := range s.passes {
		guard.CheckAbort()
		c := s.cnt[:p.rng]
		clear(c)
		ds := s.digits[p.d0:p.d1]
		val := func(row int32) uint64 {
			base := int(row) * kp
			var v uint64
			for k := len(ds) - 1; k >= 0; k-- {
				d := &ds[k]
				v = v*d.rng + (keys[base+d.t]-d.lo)>>d.shift&d.mask
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
	if len(s.passes)%2 == 1 {
		copy(idx, src)
	}
}

// radixMaxPasses is how many counting passes beat a comparison sort of
// n rows: a pass costs a few row visits however large n is, the
// comparison sort about log2(n) compares a row. Timing one wide column
// cut into one to seven digits against the comparison sort puts the
// break-even at 2 passes for 64 rows, 3 for 256, 4 for 1024 and past 5
// from 4096 on, which half the bit length less one tracks;
// BenchmarkIdxSorter's wide sets sit on both sides of it.
func radixMaxPasses(n int) int {
	return bits.Len(uint(n))/2 - 1
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

// value is the column's order-encoded value for a raw code v of its
// dimension.
func (c *sortCol) value(v int64) uint64 {
	if c.up != nil {
		v = c.up.Up(c.from, c.to, v)
	}
	return uint64(v) ^ (1 << 63)
}

// loadRow overwrites dst (length len(cs)) with the row's columns.
func (cs sortCols) loadRow(dst []uint64, row Record) {
	for t := range cs {
		dst[t] = cs[t].value(row.Dim(cs[t].dim))
	}
}

// chunkState is one in-memory run: rows, each dimension's raw code
// bounds over them, and, once pack has run, their packed keys.
type chunkState struct {
	rows   []byte
	n      int
	lo, hi []int64  // per input dimension, widened as rows are read
	keys   []uint64 // pk.Words() a row
	pk     KeyPacker
}

func newChunkState(rows, numDims int) *chunkState {
	cs := &chunkState{rows: make([]byte, 0, rows), lo: make([]int64, numDims), hi: make([]int64, numDims)}
	cs.reset()
	return cs
}

// reset empties the chunk for its next rows.
func (cs *chunkState) reset() {
	cs.rows, cs.n = cs.rows[:0], 0
	for d := range cs.lo {
		cs.lo[d], cs.hi[d] = math.MaxInt64, math.MinInt64
	}
}

// bound widens the dimension bounds by rows, which are whole disk rows.
func (cs *chunkState) bound(rows []byte, diskRow int) {
	for off := 0; off < len(rows); off += diskRow {
		row := Record(rows[off : off+diskRow])
		for d := range cs.lo {
			v := row.Dim(d)
			cs.lo[d] = min(cs.lo[d], v)
			cs.hi[d] = max(cs.hi[d], v)
		}
	}
}

// pack lays the chunk's comparator columns out from its bounds — a
// column's values lie between its raw bounds' values, the level
// functions being monotone — and packs every row's columns into keys.
func (cs *chunkState) pack(cols sortCols, diskRow int) {
	lo, hi := make([]uint64, len(cols)), make([]uint64, len(cols))
	if cs.n > 0 {
		for t := range cols {
			c := &cols[t]
			lo[t], hi[t] = c.value(cs.lo[c.dim]), c.value(cs.hi[c.dim])
		}
	}
	kw := cs.pk.Plan(lo, hi)
	cs.keys = slices.Grow(cs.keys[:0], cs.n*kw)[:cs.n*kw]
	clear(cs.keys)
	fields := cs.pk.Fields()
	for r := 0; r < cs.n; r++ {
		row := Record(cs.rows[r*diskRow : r*diskRow+diskRow])
		dst := cs.keys[r*kw : r*kw+kw]
		for i := range fields {
			f := &fields[i]
			c := &cols[f.Col]
			f.Put(dst, c.value(row.Dim(c.dim)))
		}
	}
}

// Sorted is an input sorted by a key, as SortByKey leaves it: one
// ordered stream of rows per part, served from memory when the input
// fit one chunk and from the parts' spilled runs when it did not.
// There is no sorted copy of the input in either case.
type Sorted struct {
	hdr     storage.Header // the rows' shape, as run files and sorted copies carry it
	cols    sortCols
	diskRow int
	emit    int // bytes of a row a source hands out: the payload, or the whole disk row
	opts    EngineOptions
	stats   storage.SortStats
	read    obs.EngineStats // the input read's tallies
	mem     *chunkState     // the whole input, when one chunk held it
	parts   []sortedPart
	// unsorted counts the in-memory parts not yet opened: the last index
	// sort to finish drops the packed keys, which only sorting reads, so
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

// SortByKey reads its input once and sorts it by the (normalized) sort
// key into parts ordered streams; see the file comment for the
// ordering contract, which holds within every part. Rows that agree on
// the key's leading part land in the same part, and parts are balanced
// by row count (see partRouter); one part is the plain external sort.
//
// In-memory records enter the chunk arena as the rows of a
// checksum-free (version 1) file, so they sort through the same index
// sorter into the same order as that file would, and a spilled run of
// them is such a file.
//
// from is the level each dimension's codes are at in the input: nil
// for fact records, whose codes are all at base, and a relation's own
// granularity for a spooled intermediate. The schema is consulted only
// for key parts coarser than their input level, so a caller sorting raw
// codes by all columns passes nil schema, key and from.
//
// An input that fits one chunk stays in memory, and Open index-sorts a
// part's rows on the caller's goroutine, so the parts of a parallel
// plan sort concurrently. A larger input spills one sorted run per
// part and chunk as it is read, and Open merges the part's runs. The
// caller must Close the result.
func SortByKey(input Input, schema *model.Schema, key model.SortKey, from model.Gran, parts int, opts EngineOptions) (*Sorted, error) {
	return sortByKey(input, schema, key, from, parts, false, opts)
}

func sortByKey(input Input, schema *model.Schema, key model.SortKey, from model.Gran, parts int, rawRows bool, opts EngineOptions) (_ *Sorted, err error) {
	in, err := input.open(Options{BatchBytes: opts.ReadBatchBytes, Guard: opts.Guard})
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
	// Size the row arena for the input, not for the default 256 MB run:
	// the header says how many rows can arrive.
	chunk := opts.chunk(diskRow)
	if hdr.Count < int64(chunk) {
		chunk = max(int(hdr.Count), 1)
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	runsSpan := opts.Recorder.Start(obs.SpanSortRuns)
	defer runsSpan.End()
	router := partRouter{parts: len(s.parts)}

	cur := newChunkState(chunk*diskRow, hdr.NumDims)
	var sorter IdxSorter
	// spill packs the full chunk's keys, writes each part's rows of it as
	// that part's next run and empties the chunk. A run is named in its
	// part before it is written, so Close removes it whether or not the
	// write succeeds.
	spill := func() error {
		cur.pack(s.cols, diskRow)
		for p, idx := range router.split(cur.keys, &cur.pk, cur.n) {
			if len(idx) == 0 {
				continue
			}
			path := opts.TempPath("bsort")
			s.stats.Runs++
			s.parts[p].runs = append(s.parts[p].runs, path)
			s.parts[p].rows += int64(len(idx))
			if err := s.writeRun(cur, idx, path, &sorter); err != nil {
				return err
			}
		}
		cur.reset()
		return nil
	}

	// Fill the current chunk's arena straight from the input, a read
	// chunk at a time, widen its bounds by the new rows, and spill full
	// chunks as sorted runs.
	for in.more() {
		// A full chunk becomes runs only when the input holds a further
		// row: input that exactly fills one chunk stays in memory.
		if cur.n >= chunk {
			if err := spill(); err != nil {
				return nil, err
			}
		}
		at := len(cur.rows)
		n, err := in.fill(cur.rows[at : chunk*diskRow])
		if err != nil {
			return nil, err
		}
		cur.rows = cur.rows[:at+n*diskRow]
		cur.bound(cur.rows[at:], diskRow)
		cur.n += n
		s.stats.Records += int64(n)
	}
	s.read = sourceStats(in)

	if s.stats.Runs > 0 {
		if err := spill(); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Everything fit one chunk: each part is one in-memory run, sorted
	// when it is opened.
	cur.pack(s.cols, diskRow)
	for p, idx := range router.split(cur.keys, &cur.pk, cur.n) {
		s.parts[p].idx, s.parts[p].rows = idx, int64(len(idx))
	}
	s.mem = cur
	s.stats.Runs = len(s.parts)
	s.unsorted.Store(int32(len(s.parts)))
	return s, nil
}

// writeRun index-sorts one part's rows of a chunk and writes them in
// order to a run file at path, charging the spill budget.
func (s *Sorted) writeRun(cs *chunkState, idx []int32, path string, sorter *IdxSorter) (err error) {
	defer qguard.RecoverAbort(&err)
	guard := s.opts.Guard
	sorter.Sort(idx, cs.keys, cs.pk.Words(), guard)
	if err := guard.NoteSpill(int64(len(idx)) * int64(s.hdr.RowBytes())); err != nil {
		return err
	}
	w, err := storage.CreateRaw(path, s.hdr)
	if err != nil {
		return err
	}
	for _, i := range idx {
		if err := w.WriteRow(cs.rows[int(i)*s.diskRow : int(i)*s.diskRow+s.diskRow]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// Stats reports the rows read and the sorted runs formed: one per part
// in memory, one per part and chunk spilled.
func (s *Sorted) Stats() storage.SortStats { return s.stats }

// EngineStats is the sort's share of an engine run's stats: its input
// read, the runs it formed and, when it spilled, their run files and
// bytes — a spilling sort writes every row to some run. Valid until
// Close.
func (s *Sorted) EngineStats() obs.EngineStats {
	st := s.read
	st.SortRuns = int64(s.stats.Runs)
	if s.mem == nil {
		st.Spills = int64(s.stats.Runs)
		st.SpillBytes = s.stats.Records * int64(s.hdr.RowBytes())
	}
	return st
}

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
	src := &SortedSource{s: s, total: p.rows, views: make([]Record, 0, min(p.rows, batchRows))}
	if s.mem != nil {
		defer qguard.RecoverAbort(&err)
		new(IdxSorter).Sort(p.idx, s.mem.keys, s.mem.pk.Words(), s.opts.Guard)
		if s.unsorted.Add(-1) == 0 {
			s.mem.keys = nil
		}
		src.idx = p.idx
		return src, nil
	}
	for i, path := range p.runs {
		r, err := Open(path, Options{BatchBytes: s.opts.ReadBatchBytes, Guard: s.opts.Guard, RawRows: true})
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

// Header returns the rows' shape and the part's row count (the progress
// denominator).
func (m *SortedSource) Header() storage.Header {
	h := m.s.hdr
	h.Count = m.total
	return h
}

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

// EngineStats is the merge's heap comparisons so far (the merge-cost
// metric); an in-memory part makes none.
func (m *SortedSource) EngineStats() obs.EngineStats {
	return obs.EngineStats{HeapComparisons: m.cmps}
}

// Close closes a spilled part's run readers.
func (m *SortedSource) Close() error {
	for _, src := range m.srcs {
		src.r.Close()
	}
	m.srcs, m.heap, m.idx = nil, nil, nil
	return nil
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
// part drained into a file. It publishes the sort's engine stats, the
// merge's heap comparisons among them, to opts.Recorder.
func SortFileByKey(inPath, outPath string, schema *model.Schema, key model.SortKey, opts EngineOptions) (storage.SortStats, error) {
	s, err := sortByKey(FileInput(inPath), schema, key, nil, 1, true, opts)
	if err != nil {
		return storage.SortStats{}, err
	}
	defer s.Close()
	st := s.EngineStats()
	defer func() { st.Publish(opts.Recorder) }()
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
	for err == nil {
		var batch []Record
		if batch, err = src.NextBatch(); batch == nil {
			break
		}
		for _, row := range batch {
			if err = w.WriteRow(row); err != nil {
				break
			}
		}
	}
	st.Add(src.EngineStats())
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath)
	}
	return stats, err
}

// partRouter divides a chunk's rows among the parts of a sort by
// comparator column 0, the unit a parallel plan partitions on: every row
// of a unit goes to one part, for the whole input. It reads the column
// back out of the packed keys (field 0 plus the chunk's lower bound), so
// a unit is the same value in every chunk whatever its packing. A
// chunk's new units are assigned greedily, longest processing time
// first — units descending by row count, each to the least-loaded part —
// which balances parts where plain unit hashing cannot (few distinct
// units). Loads carry over from chunk to chunk; a unit keeps the part it
// was first given. If the unit space explodes past maxRouteUnits, new
// units fall back to stateless hashing.
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
func (rt *partRouter) split(keys []uint64, pk *KeyPacker, n int) [][]int32 {
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
		rt.assign(keys, pk, n)
	}
	if cap(rt.partOf) < n {
		rt.partOf = make([]int32, n)
	}
	partOf, sizes, kw := rt.partOf[:n], make([]int, rt.parts), pk.Words()
	for r := range partOf {
		u := pk.Value(keys[r*kw:r*kw+kw], 0)
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
func (rt *partRouter) assign(keys []uint64, pk *KeyPacker, n int) {
	counts, kw := make(map[uint64]int64), pk.Words()
	for r := 0; r < n; r++ {
		counts[pk.Value(keys[r*kw:r*kw+kw], 0)]++
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
