package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensionValidation(t *testing.T) {
	if _, err := NewDimension(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewDimension("x"); err == nil {
		t.Error("no domains accepted")
	}
	if _, err := NewDimension("x", DomainSpec{Name: ""}); err == nil {
		t.Error("empty domain name accepted")
	}
	if _, err := NewDimension("x", DomainSpec{Name: "base", Fanout: 0.5}); err == nil {
		t.Error("fanout < 1 accepted")
	}
	if _, err := NewDimension("x", DomainSpec{Name: "base", Div: -2}); err == nil {
		t.Error("negative divisor accepted")
	}
	if _, err := NewDimension("x", DomainSpec{Name: "base", Div: 2, UpOne: func(c int64) int64 { return c }}); err == nil {
		t.Error("divisor beside an UpOne accepted")
	}
	d, err := NewDimension("x", DomainSpec{Name: "base"})
	if err != nil {
		t.Fatalf("minimal dimension rejected: %v", err)
	}
	if len(d.levels) != 2 {
		t.Errorf("levels = %d, want 2 (base + ALL)", len(d.levels))
	}
	if d.DomainName(d.ALL()) != "ALL" {
		t.Errorf("ALL level named %q", d.DomainName(d.ALL()))
	}
}

func TestFixedFanout(t *testing.T) {
	d := FixedFanout("A", 3, 10)
	if len(d.levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(d.levels))
	}
	// 523 -> 52 -> 5 -> ALL(0)
	if got := d.Up(0, 1, 523); got != 52 {
		t.Errorf("Up(0,1,523) = %d, want 52", got)
	}
	if got := d.Up(0, 2, 523); got != 5 {
		t.Errorf("Up(0,2,523) = %d, want 5", got)
	}
	if got := d.Up(0, d.ALL(), 523); got != 0 {
		t.Errorf("Up to ALL = %d, want 0", got)
	}
	if got := d.Up(1, 1, 52); got != 52 {
		t.Errorf("Up(1,1) not identity: %d", got)
	}
	if got := d.Fanout(0, 2); got != 100 {
		t.Errorf("Fanout(0,2) = %v, want 100", got)
	}
}

func TestResolveAndLevelByName(t *testing.T) {
	d := FixedFanout("A", 2, 4)
	l, err := d.Resolve(LevelALL)
	if err != nil || l != d.ALL() {
		t.Errorf("Resolve(LevelALL) = %d, %v", l, err)
	}
	if _, err := d.Resolve(Level(99)); err == nil {
		t.Error("Resolve(99) accepted")
	}
	if _, err := d.Resolve(Level(-2)); err == nil {
		t.Error("Resolve(-2) accepted")
	}
	l, err = d.LevelByName("L1")
	if err != nil || l != 1 {
		t.Errorf("LevelByName(L1) = %d, %v", l, err)
	}
	if _, err := d.LevelByName("nope"); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestConsistencyOfGeneralization(t *testing.T) {
	// gamma_Dk(x) == gamma_Dk(gamma_Dj(x)) for Di <= Dj <= Dk
	// (the consistency requirement of Section 2.1).
	dims := []*Dimension{
		FixedFanout("A", 4, 7),
		TimeDimension("t"),
		IPv4Dimension("U"),
		PortDimension("P"),
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range dims {
		for trial := 0; trial < 200; trial++ {
			x := rng.Int63n(1 << 40)
			if d.Name() == "P" {
				x = rng.Int63n(65536)
			}
			for j := Level(0); int(j) < len(d.levels); j++ {
				for k := j; int(k) < len(d.levels); k++ {
					direct := d.Up(0, k, x)
					viaJ := d.Up(j, k, d.Up(0, j, x))
					if direct != viaJ {
						t.Fatalf("%s: Up(0,%d,%d)=%d but via level %d = %d",
							d.Name(), k, x, direct, j, viaJ)
					}
				}
			}
		}
	}
}

func TestMonotonicityQuick(t *testing.T) {
	// Proposition 1: u < v implies gamma(u) <= gamma(v) at every level.
	dims := []*Dimension{
		FixedFanout("A", 3, 10),
		TimeDimension("t"),
		IPv4Dimension("U"),
		PortDimension("P"),
	}
	for _, d := range dims {
		d := d
		f := func(a, b int32) bool {
			u, v := int64(a), int64(b)
			if d.Name() == "P" {
				u, v = u&0xffff, v&0xffff
			}
			if u > v {
				u, v = v, u
			}
			for l := Level(1); int(l) < len(d.levels); l++ {
				if d.Up(0, l, u) > d.Up(0, l, v) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: monotonicity violated: %v", d.Name(), err)
		}
	}
}

func TestCheckMonotone(t *testing.T) {
	good := FixedFanout("A", 2, 3)
	if err := good.CheckMonotone(0, []int64{1, 5, 2, 9, 4}); err != nil {
		t.Errorf("monotone dimension rejected: %v", err)
	}
	bad := MustDimension("B", DomainSpec{
		Name:  "base",
		UpOne: func(c int64) int64 { return -c },
	})
	if err := bad.CheckMonotone(0, []int64{1, 2}); err == nil {
		t.Error("anti-monotone UpOne accepted")
	}
	if err := bad.CheckMonotone(bad.ALL(), []int64{1, 2}); err != nil {
		t.Errorf("ALL level should be trivially monotone: %v", err)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3},
		{6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestUpPanicsOnFinerTarget(t *testing.T) {
	d := FixedFanout("A", 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("Up(coarse->fine) did not panic")
		}
	}()
	d.Up(1, 0, 5)
}

func TestFormatCode(t *testing.T) {
	d := FixedFanout("A", 2, 3)
	if got := d.FormatCode(0, 42); got != "42" {
		t.Errorf("default format = %q", got)
	}
	if got := d.FormatCode(d.ALL(), 0); got != "ALL" {
		t.Errorf("ALL format = %q", got)
	}
}

// TestUpMatchesUpOneChain: Up answers a (from, to) pair whose levels all
// declare a divisor with one floor division by the product; for every
// built-in hierarchy and every from <= to that must equal applying
// UpOne level by level, on negative, zero, boundary and large codes —
// including divisor products that overflow and fall back to the chain.
func TestUpMatchesUpOneChain(t *testing.T) {
	dict, _, err := NewDictBuilder("geo", "city", "country").
		Add("Paris", "FR").Add("Lyon", "FR").Add("Rome", "IT").Build()
	if err != nil {
		t.Fatal(err)
	}
	dims := []*Dimension{
		FixedFanout("A", 3, 10),
		FixedFanout("B", 5, 7),
		FixedFanout("wide", 4, 1<<30), // 2^90 overflows: 0 -> 3 must take the chain
		TimeDimension("t"),
		IPv4Dimension("U"),
		PortDimension("P"),
		dict,
	}
	rng := rand.New(rand.NewSource(19))
	codes := []int64{0, 1, -1, 2, -2, 1<<62 + 12345, -(1 << 62) - 12345, 1<<63 - 1, -1 << 63}
	for i := 0; i < 2000; i++ {
		codes = append(codes, rng.Int63()-rng.Int63(), int64(rng.Intn(200000))-100000)
	}
	// Either side of the multiples of every divisor Up will divide by.
	for _, d := range dims {
		for _, p := range d.div {
			if p > 1 && p < 1<<61 {
				codes = append(codes, -p-1, -p, -p+1, p-1, p, p+1, 2*p-1, 2*p)
			}
		}
	}
	for _, d := range dims {
		fast := 0
		for from := Level(0); from <= d.ALL(); from++ {
			for to := from; to <= d.ALL(); to++ {
				if d.div[int(from)*len(d.levels)+int(to)] != 0 {
					fast++
				}
				for _, c := range codes {
					want := c
					for l := from; l < to; l++ {
						want = d.levels[l].UpOne(want)
					}
					if got := d.Up(from, to, c); got != want {
						t.Fatalf("%s: Up(%d, %d, %d) = %d, UpOne chain gives %d", d.Name(), from, to, c, got, want)
					}
				}
			}
		}
		t.Logf("%s: %d (from, to) pairs divide once", d.Name(), fast)
	}
	// The shapes the engines lean on do take the fast path.
	if d := dims[0]; d.div[2] != 100 {
		t.Errorf("FixedFanout(3, 10): levels 0 -> 2 divide by %d, want 100", d.div[2])
	}
	if d := dims[3]; d.div[2] != 86400 || d.div[3] != 0 {
		t.Errorf("Time: Second -> Day divides by %d (want 86400), Second -> Month by %d (want 0, the chain)",
			d.div[2], d.div[3])
	}
	if d := dims[2]; d.div[2] != 1<<60 || d.div[3] != 0 {
		t.Errorf("wide: levels 0 -> 2 divide by %d (want 2^60), 0 -> 3 by %d (want 0: the product overflows)",
			d.div[2], d.div[3])
	}
}
