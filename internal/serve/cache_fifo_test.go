//go:build unix

package serve

import (
	"bytes"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

// TestCacheGetProbesOutsideLock: revalidating one entry reads its file
// without the cache's lock, so a probe stuck in open (a FIFO with no
// writer) holds up no hit on another key. Once the FIFO opens, the
// stuck Get sees a changed file and counts an invalidation.
func TestCacheGetProbesOutsideLock(t *testing.T) {
	rec := obs.New()
	c := newResultCache(CacheConfig{}, rec)
	pa := writeTempFile(t, "a.rec", []byte("rows of a"))
	pb := writeTempFile(t, "b.rec", []byte("rows of b"))
	ka, kb := cacheKey(pa, "wf", false), cacheKey(pb, "wf", false)
	for _, kp := range [][2]string{{ka, pa}, {kb, pb}} {
		fp, err := aw.CollectionFingerprint(aw.FromFile(kp[1]))
		if err != nil {
			t.Fatal(err)
		}
		if !c.Put(kp[0], kp[1], fp, fakeResults(3), "trace", "sortscan") {
			t.Fatalf("Put %s refused", kp[0])
		}
	}
	if err := os.Remove(pa); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(pa, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}

	gotA := make(chan bool, 1)
	go func() {
		_, ok := c.Get(ka, pa)
		gotA <- ok
	}()
	// Wait until A's probe is in aw.CollectionFingerprint (blocked
	// opening the FIFO).
	waitFor(t, func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("aw.CollectionFingerprint"))
	})

	gotB := make(chan bool, 1)
	go func() {
		_, ok := c.Get(kb, pb)
		gotB <- ok
	}()
	bDone := false
	select {
	case ok := <-gotB:
		bDone = true
		if !ok {
			t.Error("Get on B missed")
		}
	case <-time.After(time.Second):
		t.Error("Get on B waited on A's file probe")
	}

	// Give A's probe a writer: it reads an empty FIFO and sees a changed
	// file.
	w, err := os.OpenFile(pa, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if ok := <-gotA; ok {
		t.Error("Get on A hit after its file became a FIFO")
	}
	if !bDone {
		<-gotB
	}
	if n := rec.Counter(obs.MServeCacheInvalidations).Value(); n != 1 {
		t.Errorf("invalidations = %d, want 1", n)
	}
}
