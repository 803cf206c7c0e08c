package serve

import (
	"context"
	"errors"
	"testing"

	ukc "repro"
)

// TestDoResultOnlyOnSuccess pins do's result contract: the caller gets
// fn's result only with a nil error, and R's zero value with any error,
// even one fn returned beside a partial result.
func TestDoResultOnlyOnSuccess(t *testing.T) {
	ctx := context.Background()
	s, err := New(ukc.NewSolver[ukc.Vec](), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inst := ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, []ukc.Point{{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}}}, nil)
	if err := s.Register(ctx, "inst", inst); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, c := range []struct {
		err  error
		want int
	}{{nil, 7}, {boom, 0}} {
		got, _, err := do(s, ctx, "test", "inst", 0, func(context.Context, ukc.Instance[ukc.Vec]) (int, error) { return 7, c.err })
		if got != c.want || !errors.Is(err, c.err) {
			t.Fatalf("fn returning (7, %v): do = (%d, %v), want (%d, %v)", c.err, got, err, c.want, c.err)
		}
	}
}
