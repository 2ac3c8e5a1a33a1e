package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awra/aw"
	"awra/internal/gen"
	"awra/internal/serve"
	"awra/internal/storage"
	"awra/internal/wfdsl"
)

// rssInterval is how often a serve window restarts the peak-RSS
// watermark; peak_rss_mb is the median interval's peak.
const rssInterval = 200 * time.Millisecond

// seqLen is the length of each client's pre-generated request
// sequence; a client that outruns it wraps around.
const seqLen = 4096

// measures is the response payload shape the oracle is kept in.
type measures = map[string][]serve.ValueAt

// serveSetup is what one serve set-up round leaves running.
type serveSetup struct {
	dir    string
	live   string   // the registered collection path
	files  []string // one per collection state
	rows   int64
	texts  []string
	bodies [][]byte // the POST /query body of each text
	parsed []*wfdsl.Parsed
	oracle [][]measures // [text][state]
	srv    *serve.Server
	ts     *httptest.Server
	// started counts collection replacements begun, finished those
	// completed; state k of the file is files[k%len(files)].
	started, finished atomic.Int64
	checks, failed    int
}

// project maps full tables to the rows a default-limit response
// carries, exactly as the server does.
func project(res aw.Results) measures {
	out := measures{}
	for name, t := range res {
		rows := aw.TopK(t, 50)
		vals := make([]serve.ValueAt, len(rows))
		for i, r := range rows {
			vals[i] = serve.ValueAt{Region: r.Label, Value: r.Value}
		}
		out[name] = vals
	}
	return out
}

func measuresEqual(a, b measures) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ra := range a {
		rb, ok := b[name]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

// copyFile copies src to dst (a fresh inode, so a rename over the live
// collection is an atomic replacement).
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// setupServe is one full serve set-up round: generate the collection
// states from the seed, compute the oracle (a cold aw.Run per workflow
// text and state), start the server, and send every text once.
func setupServe(w workload, cfg runConfig, dir string) (*serveSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &serveSetup{dir: dir, live: filepath.Join(dir, "net.rec")}
	nStates := 1
	if w.rewriteEvery > 0 {
		nStates = states
	}
	for k := 0; k < nStates; k++ {
		f := filepath.Join(dir, fmt.Sprintf("state%d.rec", k))
		if _, _, err := gen.NetLog(f, cfg.sz.netRows, gen.NetConfig{Seed: cfg.seed + int64(k)*7919}); err != nil {
			return nil, err
		}
		s.files = append(s.files, f)
	}
	if err := copyFile(s.files[0], s.live); err != nil {
		return nil, err
	}
	var err error
	if s.rows, err = rowCount(s.live); err != nil {
		return nil, err
	}
	// Singlescan keeps the 72 oracle runs of serve-hot-churn cheap: a
	// sortscan run allocates its full sort chunk whatever the file size.
	ctx := context.Background()
	oracleOpts := aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan}, TempDir: dir}
	for i := 0; i < w.texts; i++ {
		text := serveText(i)
		p, err := wfdsl.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("text %d: %w", i, err)
		}
		body, err := json.Marshal(serve.QueryRequest{Workflow: text, Collection: "net"})
		if err != nil {
			return nil, err
		}
		s.texts, s.bodies = append(s.texts, text), append(s.bodies, body)
		s.parsed = append(s.parsed, p)
		var per []measures
		for _, f := range s.files {
			res, err := aw.Run(ctx, p.Workflow, aw.FromFile(f), oracleOpts)
			if err != nil {
				return nil, fmt.Errorf("oracle text %d: %w", i, err)
			}
			m := project(res)
			empty := true
			for _, rows := range m {
				empty = empty && len(rows) == 0
			}
			if empty {
				return nil, fmt.Errorf("text %d answers nothing on %s: it would never be cached", i, f)
			}
			per = append(per, m)
		}
		s.oracle = append(s.oracle, per)
	}
	engine, err := aw.ParseEngine(w.srvEngine)
	if err != nil {
		return nil, err
	}
	s.srv, err = serve.New(serve.Config{
		Collections:   map[string]string{"net": s.live},
		HistoryDir:    filepath.Join(dir, "history"),
		TempDir:       dir,
		Gate:          serve.GateConfig{MaxConcurrent: gateSlots, QueueDepth: gateSlots, QueueWait: time.Second},
		DefaultEngine: engine,
		MemoryBudget:  64 << 20,
		Cache:         serve.CacheConfig{Disabled: !w.cacheOn, MaxEntries: 16},
	})
	if err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	for i := range s.texts {
		sm := s.request(i, "")
		s.checks++
		if ok, _ := s.verify(&sm); !ok {
			s.failed++
		}
	}
	return s, nil
}

// rowCount returns a record file's row count from its header.
func rowCount(path string) (int64, error) {
	f, hdr, err := storage.OpenRaw(path)
	if err != nil {
		return 0, err
	}
	f.Close()
	return hdr.Count, nil
}

func (s *serveSetup) close() error {
	s.ts.Close()
	return s.srv.Drain()
}

// sample is one request as the client saw it.
type sample struct {
	text    int
	lat     time.Duration
	start   time.Time
	status  int
	body    []byte
	err     error
	stateLo int64 // replacements finished when the request was sent
	stateHi int64 // replacements started when the reply arrived
	traced  bool
	// Envelope fields, filled by verify.
	serverUs   int64
	servedFrom string
	engine     string
}

// request posts text i and reads the whole reply.
func (s *serveSetup) request(i int, traceparent string) sample {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/query", bytes.NewReader(s.bodies[i]))
	if err != nil {
		return sample{text: i, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	sm := sample{text: i, stateLo: s.finished.Load(), traced: traceparent != "", start: time.Now()}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		sm.err = err
		return sm
	}
	sm.body, sm.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	sm.lat = time.Since(sm.start)
	sm.stateHi = s.started.Load()
	sm.status = resp.StatusCode
	return sm
}

// verify decodes a sample's envelope and checks its measures against
// the oracle: the answer must equal the oracle of one collection state
// that was live between send and receive. It fills the envelope fields
// the layer metrics read.
func (s *serveSetup) verify(sm *sample) (bool, string) {
	if sm.err != nil {
		return false, sm.err.Error()
	}
	if sm.status != http.StatusOK {
		return false, fmt.Sprintf("status %d", sm.status)
	}
	var env serve.QueryResponse
	if err := json.Unmarshal(sm.body, &env); err != nil {
		return false, err.Error()
	}
	sm.serverUs, sm.servedFrom, sm.engine = env.DurationUs, env.ServedFrom, env.Engine
	got := measures(env.Measures)
	for k := sm.stateLo; k <= sm.stateHi; k++ {
		if measuresEqual(got, s.oracle[sm.text][int(k)%len(s.files)]) {
			return true, ""
		}
	}
	return false, fmt.Sprintf("text %d: answer matches no collection state in [%d, %d]", sm.text, sm.stateLo, sm.stateHi)
}

// replace swaps the next collection state in under the live path by
// copy-then-rename, so readers see the old file or the new one whole.
func (s *serveSetup) replace() error {
	next := s.started.Add(1)
	tmp := s.live + ".next"
	if err := copyFile(s.files[int(next)%len(s.files)], tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.live); err != nil {
		return err
	}
	s.finished.Add(1)
	return nil
}

// sequence draws one client's request sequence: text indices with
// popularity 1/(rank+1)^s, rank = text index (s = 0 is uniform).
func sequence(rng *rand.Rand, texts int, zipfS float64) []int {
	cdf := make([]float64, texts)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	seq := make([]int, seqLen)
	for j := range seq {
		u := rng.Float64() * sum
		i := 0
		for i < texts-1 && cdf[i] < u {
			i++
		}
		seq[j] = i
	}
	return seq
}

// runServe runs one serve workload: set-up rounds (the last one's
// server stays up), then the closed-loop window.
func runServe(w workload, cfg runConfig, work string, ms *metricSet, tr *tracer) (*result, error) {
	var (
		st     *serveSetup
		rounds []float64
		res    = &result{}
	)
	for r := 0; r < cfg.sz.setupRounds; r++ {
		t0 := time.Now()
		s, err := setupServe(w, cfg, filepath.Join(work, fmt.Sprintf("round%d", r)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		res.Attempted += s.checks
		res.Failed += s.failed
		if r < cfg.sz.setupRounds-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	defer st.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	seqs := make([][]int, clients)
	for c := range seqs {
		seqs[c] = sequence(rng, w.texts, w.zipfS)
	}
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	// Give the set-up's memory back, then sample peak RSS per interval.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var peaks []float64
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for time.Now().Before(deadline) {
			resetPeakRSS()
			time.Sleep(rssInterval)
			peaks = append(peaks, peakRSSMB())
		}
	}()
	perClient := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if c == 0 && w.rewriteEvery > 0 && i > 0 && i%w.rewriteEvery == 0 {
					if err := st.replace(); err != nil {
						errs[c] = err
						return
					}
				}
				// In the traced pass every other request carries a W3C
				// traceparent and gets a harness span, so the two halves
				// of one window give the tracing overhead.
				tp := ""
				if tr != nil && i%2 == 0 {
					tp = tr.traceparent(c, i)
				}
				perClient[c] = append(perClient[c], st.request(seqs[c][i%seqLen], tp))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	<-sampler
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}

	// Verification happens after the window, on the stored bodies, so
	// decoding and comparing are not in anybody's latency.
	var all, okS []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	for i := range all {
		ok, why := st.verify(&all[i])
		if !ok {
			res.Failed++
			if len(res.detail.Notes) < 5 {
				res.detail.Notes = append(res.detail.Notes, "failed: "+why)
			}
			continue
		}
		okS = append(okS, all[i])
	}
	res.Attempted += len(all)
	res.detail.Samples = len(okS)
	if len(okS) == 0 {
		return nil, fmt.Errorf("no request of %s succeeded", w.name)
	}
	if cfg.trace {
		return res, serveLayers(w, cfg, st, seqs[0], okS, before, after, ms, tr)
	}
	ms.set("setup_s", median(rounds))
	ms.set("lat_p50_ms", quantile(latsMs(okS, nil), 0.50))
	ms.set("qps", float64(len(okS))/elapsed)
	ms.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(all)))
	ms.set("peak_rss_mb", median(peaks))
	return res, nil
}

// latsMs returns the client-side latencies, in ms, of the samples keep
// accepts (nil keeps all).
func latsMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// scrape reads GET /metrics into name → value (label sets kept in the
// name), the public surface the serve-layer counts are read from.
func (s *serveSetup) scrape() (map[string]float64, error) {
	resp, err := s.ts.Client().Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
