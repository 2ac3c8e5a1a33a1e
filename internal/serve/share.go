// Scan sharing: the paper's Section 5 idea — one pass over the fact
// table computes an entire workflow of measures — applied across
// concurrent queries. Compatible queries (same collection file, same
// schema shape, same result-affecting options) that arrive within a
// short hold window are merged into ONE compiled workflow
// (core.MergeCompiled deduplicates structurally identical nodes), run
// as a single engine pass under the leader's admission slot and
// options, and the finalized tables are fanned back out to every
// waiter by name projection.
//
// The hold window trades a bounded latency add for a fact-scan
// multiplier: N compatible queries cost one scan instead of N. It is
// off by default (Window = 0) — an always-on service enables it when
// repeated scan-heavy workloads dominate.
package serve

import (
	"context"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/core"
	"awra/internal/obs"
)

// ShareConfig tunes the scan-sharing batcher.
type ShareConfig struct {
	// Window is how long the first query of a batch waits for
	// compatible queries to join before running. 0 disables sharing.
	Window time.Duration
	// MaxBatch caps queries merged into one run; 0 defaults to 8.
	// When the cap is reached the batch launches immediately.
	MaxBatch int
}

func (c ShareConfig) withDefaults() ShareConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	return c
}

// shareExec runs one (merged) workflow and reports the results and the
// engine that ran. Supplied by the server so the batch runs under the
// leader's query options.
type shareExec func(merged *core.Compiled) (aw.Results, string, error)

// shareMember is one query waiting on a batch. Its out field is
// written only under the sharer's mutex; done is closed after the
// write, so readers that waited on done see a settled value.
type shareMember struct {
	compiled  *core.Compiled
	done      chan struct{}
	abandoned bool // set under mu when the member's ctx gave up waiting
	out       shareOutcome
}

// shareOutcome is what a batched query receives back.
type shareOutcome struct {
	// solo means the member must execute by itself: sharing formed a
	// one-member batch, the merge failed, or the wait was abandoned.
	solo bool
	// res holds this member's own measures, projected out of the
	// merged run (nil when solo or on error).
	res aw.Results
	// leader marks the member whose options and request identity the
	// merged run used; its history record and flight trace are the
	// run's own. Followers synthesize theirs.
	leader bool
	// leaderTraceID is the flight trace of the run that computed the
	// tables (followers link to it).
	leaderTraceID string
	engine        string
	err           error
}

// shareGroup is one forming batch.
type shareGroup struct {
	key     string
	members []*shareMember
	timer   *time.Timer
	full    chan struct{} // closed when MaxBatch is hit (launch early)
	closed  bool          // full already closed
}

// sharer coalesces compatible concurrently-admitted queries. One
// instance per server; nil disables sharing (all methods nil-safe).
type sharer struct {
	cfg ShareConfig
	rec *obs.Recorder

	mu     sync.Mutex
	groups map[string]*shareGroup
}

func newSharer(cfg ShareConfig, rec *obs.Recorder) *sharer {
	if cfg.Window <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	rec.Counter(obs.MShareBatches)
	rec.Counter(obs.MShareBatchedQueries)
	return &sharer{cfg: cfg, rec: rec, groups: make(map[string]*shareGroup)}
}

// submit enrolls a query in the batch forming under key and blocks
// until the batch resolves or ctx is canceled. The first member of a
// batch becomes its runner: it waits out the hold window (or until the
// batch is full), merges the members' workflows, and executes the
// merged workflow via ITS exec closure. ok=false means the caller must
// run solo — sharing formed a one-member batch, the merge was not
// possible, or the wait was abandoned.
func (sh *sharer) submit(ctx context.Context, key string, c *core.Compiled, traceID string, exec shareExec) (shareOutcome, bool) {
	if sh == nil {
		return shareOutcome{}, false
	}
	m := &shareMember{compiled: c, done: make(chan struct{})}

	sh.mu.Lock()
	g := sh.groups[key]
	runner := g == nil
	if runner {
		g = &shareGroup{key: key, full: make(chan struct{})}
		g.timer = time.NewTimer(sh.cfg.Window)
		sh.groups[key] = g
	}
	g.members = append(g.members, m)
	if len(g.members) >= sh.cfg.MaxBatch && !g.closed {
		g.closed = true
		close(g.full)
	}
	sh.mu.Unlock()

	if runner {
		sh.runBatch(ctx, g, exec, traceID)
		return m.out, !m.out.solo
	}
	select {
	case <-m.done:
		return m.out, !m.out.solo
	case <-ctx.Done():
		// Give up the wait. If the batch has not collected this member
		// yet, it will be skipped; if it has, its result is simply
		// discarded — the caller's ctx error wins either way.
		sh.mu.Lock()
		m.abandoned = true
		sh.mu.Unlock()
		return shareOutcome{solo: true}, false
	}
}

// settle writes a member's outcome (under the mutex, see shareMember)
// and releases its waiter.
func (sh *sharer) settle(m *shareMember, out shareOutcome) {
	sh.mu.Lock()
	m.out = out
	sh.mu.Unlock()
	close(m.done)
}

// runBatch is executed by the batch's first member: wait out the hold
// window, detach the group, merge, run once, fan out.
func (sh *sharer) runBatch(ctx context.Context, g *shareGroup, exec shareExec, leaderTraceID string) {
	select {
	case <-g.timer.C:
	case <-g.full:
		g.timer.Stop()
	case <-ctx.Done():
		g.timer.Stop()
	}

	sh.mu.Lock()
	delete(sh.groups, g.key)
	if !g.closed {
		g.closed = true
		close(g.full) // late arrivals race the delete, never the run
	}
	members := make([]*shareMember, 0, len(g.members))
	var gone []*shareMember
	for _, m := range g.members {
		if m.abandoned && m != g.members[0] {
			gone = append(gone, m)
			continue
		}
		members = append(members, m)
	}
	sh.mu.Unlock()
	for _, m := range gone {
		sh.settle(m, shareOutcome{solo: true})
	}

	leader := members[0]
	if len(members) == 1 {
		sh.settle(leader, shareOutcome{solo: true})
		return
	}

	parts := make([]*core.Compiled, len(members))
	for i, m := range members {
		parts[i] = m.compiled
	}
	merged, nameMaps, err := core.MergeCompiled(parts)
	if err != nil {
		// Cannot merge — and a wrong merge would be a silent wrong
		// answer, so never force it: everyone executes solo.
		for _, m := range members {
			sh.settle(m, shareOutcome{solo: true})
		}
		return
	}

	res, engine, runErr := exec(merged)
	sh.rec.Counter(obs.MShareBatches).Add(1)
	sh.rec.Counter(obs.MShareBatchedQueries).Add(int64(len(members) - 1))

	for i, m := range members {
		out := shareOutcome{
			leader:        m == leader,
			leaderTraceID: leaderTraceID,
			engine:        engine,
			err:           runErr,
		}
		if runErr == nil {
			out.res = projectResults(res, nameMaps[i], m.compiled.Outputs())
		}
		sh.settle(m, out)
	}
}

// projectResults extracts one member's measures from a merged run's
// results through its name map. The *Table values are shared, not
// copied: finalized tables are read-only.
func projectResults(merged aw.Results, nameMap map[string]string, outputs []string) aw.Results {
	out := make(aw.Results, len(outputs))
	for _, name := range outputs {
		if t, ok := merged[nameMap[name]]; ok {
			out[name] = t
		}
	}
	return out
}
