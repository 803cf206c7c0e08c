package wire

import (
	"math"
	"testing"
	"time"
)

// TestDeadline pins the deadline conversion in both directions: a positive
// deadline rounds up to whole milliseconds, so none is sent as 0 (no
// deadline), and a received deadline_ms too large for a time.Duration
// saturates instead of wrapping around. 76480200929599801 ms times 10⁶
// wraps to 64 ns.
func TestDeadline(t *testing.T) {
	for _, c := range []struct {
		d  time.Duration
		ms int64
	}{
		{-time.Second, 0}, {0, 0}, {time.Nanosecond, 1}, {500 * time.Microsecond, 1},
		{time.Millisecond, 1}, {time.Millisecond + 1, 2}, {250 * time.Millisecond, 250},
		{math.MaxInt64, math.MaxInt64/int64(time.Millisecond) + 1},
	} {
		if got := DeadlineMS(c.d); got != c.ms {
			t.Errorf("DeadlineMS(%v) = %d, want %d", c.d, got, c.ms)
		}
	}
	for _, c := range []struct {
		ms int64
		d  time.Duration
	}{
		{-5, -5 * time.Millisecond}, {0, 0}, {250, 250 * time.Millisecond},
		{math.MaxInt64 / int64(time.Millisecond), math.MaxInt64 / time.Millisecond * time.Millisecond},
		{math.MaxInt64/int64(time.Millisecond) + 1, math.MaxInt64},
		{76480200929599801, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
	} {
		if got := (Request{DeadlineMS: c.ms}).Deadline(); got != c.d {
			t.Errorf("Request{DeadlineMS: %d}.Deadline() = %v, want %v", c.ms, got, c.d)
		}
	}
}
