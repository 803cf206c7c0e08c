package stream

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/kcenter"
	"repro/internal/metricspace"
	"repro/internal/sebo"
	"repro/internal/uncertain"
)

var euclid = metricspace.Euclidean{}

func TestBallSinglePoint(t *testing.T) {
	var b Ball
	b.Push(geom.Vec{1, 2})
	if b.Radius() != 0 || !b.Center().Equal(geom.Vec{1, 2}, 0) || b.N() != 1 {
		t.Errorf("ball = %v r=%g n=%d", b.Center(), b.Radius(), b.N())
	}
}

func TestBallCenterIsCopy(t *testing.T) {
	var b Ball
	b.Push(geom.Vec{1, 2})
	c := b.Center()
	c[0] = 99
	if b.Center()[0] != 1 {
		t.Error("Center leaked internal state")
	}
}

func TestBallEmptyPanics(t *testing.T) {
	var b Ball
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Center()
}

func TestBallDimMismatchPanics(t *testing.T) {
	var b Ball
	b.Push(geom.Vec{0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Push(geom.Vec{0})
}

func TestBallTwoPoints(t *testing.T) {
	var b Ball
	b.Push(geom.Vec{0, 0})
	b.Push(geom.Vec{2, 0})
	// Optimal ball: center (1,0), radius 1 — the ZZC update is exact here.
	if math.Abs(b.Radius()-1) > 1e-12 || !b.Center().Equal(geom.Vec{1, 0}, 1e-12) {
		t.Errorf("ball = %v r=%g", b.Center(), b.Radius())
	}
}

// TestBallCoversAndApproximates: the streaming ball must contain every
// pushed point and stay within 3/2 of the offline MEB radius.
func TestBallCoversAndApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(100)
		d := 1 + rng.Intn(4)
		pts := make([]geom.Vec, n)
		var b Ball
		for i := range pts {
			pts[i] = geom.NewVec(d)
			for a := 0; a < d; a++ {
				pts[i][a] = rng.NormFloat64() * 5
			}
			b.Push(pts[i])
		}
		c := b.Center()
		for i, p := range pts {
			if geom.Dist(p, c) > b.Radius()+1e-9 {
				t.Fatalf("trial %d: point %d outside streaming ball", trial, i)
			}
		}
		_, offR := sebo.MEB(pts, 0.01)
		// Offline (1.01-approx) radius ≥ OPT/1.01… compare streaming ≤ 1.5·OPT.
		if b.Radius() > 1.5*offR+1e-9 {
			t.Fatalf("trial %d: streaming radius %g > 1.5×offline %g", trial, b.Radius(), offR)
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIncrementalFewerPointsThanK(t *testing.T) {
	s, err := NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	s.Push(geom.Vec{0, 0})
	s.Push(geom.Vec{1, 1})
	s.Push(geom.Vec{0, 0}) // duplicate ignored in bootstrap
	if got := len(s.Centers()); got != 2 {
		t.Errorf("centers = %d, want 2", got)
	}
	if s.N() != 3 {
		t.Errorf("N = %d, want 3", s.N())
	}
}

// TestIncrementalEightApprox: after every prefix, the doubling algorithm's
// covering radius is within 8× the offline optimal prefix radius.
func TestIncrementalEightApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(20)
		k := 1 + rng.Intn(3)
		pts := make([]geom.Vec, n)
		for i := range pts {
			pts[i] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		s, err := NewIncremental(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			s.Push(p)
			if (i+1)%7 != 0 && i != n-1 {
				continue // check a few prefixes, not all (cost)
			}
			prefix := pts[:i+1]
			centers := s.Centers()
			if len(centers) == 0 || len(centers) > k {
				t.Fatalf("trial %d: %d centers for k=%d", trial, len(centers), k)
			}
			streamR := kcenter.Radius[geom.Vec](euclid, prefix, centers)
			// Offline reference: Gonzalez radius ≤ 2·OPT ⇒ OPT ≥ gonz/2.
			_, gonz, err := kcenter.Gonzalez[geom.Vec](euclid, prefix, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gonz == 0 {
				if streamR > 1e-9 {
					t.Fatalf("trial %d: OPT=0 but stream radius %g", trial, streamR)
				}
				continue
			}
			// streamR ≤ 8·OPT and OPT ≤ gonz ⇒ allow streamR ≤ 8·gonz.
			if streamR > 8*gonz+1e-9 {
				t.Fatalf("trial %d prefix %d: stream radius %g > 8×Gonzalez %g",
					trial, i+1, streamR, gonz)
			}
		}
	}
}

func TestUncertain1CenterMatchesTheorem21Flavor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, err := gen.GaussianClusters(rng, 30, 3, 2, 1, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var u Uncertain1Center
	for _, p := range pts {
		if err := u.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if u.N() != 30 {
		t.Errorf("N = %d", u.N())
	}
	comp, err := core.Compile[geom.Vec](context.Background(), euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := comp.EcostUnassigned(context.Background(), []geom.Vec{u.Center()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := core.Optimal1CenterEuclidean(pts, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming composition: constant factor; assert a conservative 4x
	// (2 from the surrogate argument × ~1.5 streaming slack, rounded up).
	if opt > 0 && cost > 4*opt {
		t.Errorf("streaming 1-center cost %g > 4×opt %g", cost, opt)
	}
}

func TestUncertain1CenterRejectsInvalid(t *testing.T) {
	var u Uncertain1Center
	if err := u.Push(uncertain.Point[geom.Vec]{}); err == nil {
		t.Error("invalid point accepted")
	}
	if u.N() != 0 {
		t.Error("invalid point counted")
	}
}

func TestUncertainKCenterStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, err := gen.GaussianClusters(rng, 60, 3, 2, 3, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewUncertainKCenter(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := s.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	centers := s.Centers()
	if len(centers) == 0 || len(centers) > 3 {
		t.Fatalf("centers = %d", len(centers))
	}
	// The streaming result must be within a constant factor of the batch
	// pipeline on the same stream; assert a loose 10x (8 from doubling with
	// slack for the surrogate step).
	ctx := context.Background()
	comp, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamCost, err := comp.EcostUnassigned(ctx, centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.SolveCompiled(ctx, comp, 3, core.Options{Rule: core.RuleEP})
	if err != nil {
		t.Fatal(err)
	}
	if batch.EcostUnassigned > 0 && streamCost > 10*batch.EcostUnassigned {
		t.Errorf("streaming cost %g > 10×batch %g", streamCost, batch.EcostUnassigned)
	}
	if _, err := NewUncertainKCenter(0); err == nil {
		t.Error("k=0 accepted")
	}
	var bad UncertainKCenter
	bad.inc, _ = NewIncremental(1)
	if err := bad.Push(uncertain.Point[geom.Vec]{}); err == nil {
		t.Error("invalid point accepted")
	}
}

func BenchmarkIncrementalPush(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s, err := NewIncremental(16)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]geom.Vec, 1024)
	for i := range pts {
		pts[i] = geom.Vec{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(pts[i%len(pts)])
	}
}

func TestPushSet(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts, err := gen.GaussianClusters(rng, 40, 3, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Feeding a batch must equal feeding the same points one by one.
	var bulk1, solo1 Uncertain1Center
	if err := bulk1.PushSet(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := solo1.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if bulk1.N() != solo1.N() || !bulk1.Center().Equal(solo1.Center(), 0) {
		t.Fatal("Uncertain1Center.PushSet differs from per-point Push")
	}

	bulkK, err := NewUncertainKCenter(3)
	if err != nil {
		t.Fatal(err)
	}
	soloK, err := NewUncertainKCenter(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulkK.PushSet(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := soloK.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	bc, sc := bulkK.Centers(), soloK.Centers()
	if bulkK.N() != soloK.N() || len(bc) != len(sc) {
		t.Fatal("UncertainKCenter.PushSet differs from per-point Push")
	}
	for i := range bc {
		if !bc[i].Equal(sc[i], 0) {
			t.Fatalf("center %d differs after PushSet", i)
		}
	}

	// A canceled context stops the feed with ctx.Err; the prefix absorbed
	// so far stays a valid sketch.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var c1 Uncertain1Center
	if err := c1.PushSet(canceled, pts); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := bulkK.PushSet(canceled, pts); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
