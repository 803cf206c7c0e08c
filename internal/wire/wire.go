// Package wire declares every body of the HTTP API once, for package client
// and cmd/ukserver. A response's centers or snapped column is a type
// parameter: []P where the gateway encodes, json.RawMessage where the
// client decodes. Responses declare their fields in ascending order of
// their JSON keys, the order encoding/json gave the map literals the
// gateway used to answer with, so the bytes are unchanged.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// Request is the body of every workload request. Centers stays raw until
// the instance's kind fixes its point type (DecodeCenters).
type Request struct {
	Instance   string          `json:"instance"`
	K          int             `json:"k,omitempty"`
	Centers    json.RawMessage `json:"centers,omitempty"`
	Assign     []int           `json:"assign,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// DeadlineMS converts a caller's deadline to whole milliseconds, rounding a
// positive one up: under a millisecond it is 1, not 0, which means none.
func DeadlineMS(d time.Duration) int64 {
	ms := int64(d / time.Millisecond)
	if d > 0 && d%time.Millisecond != 0 {
		ms++
	}
	return max(ms, 0)
}

// Deadline is the request's deadline (0 or less: the server default). A
// deadline_ms too large for a time.Duration saturates instead of wrapping.
func (r Request) Deadline() time.Duration {
	if r.DeadlineMS > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// DecodeCenters decodes a centers column against the instance kind's point
// type: []ukc.Vec for euclidean instances, []int for finite ones.
func DecodeCenters[P any](raw json.RawMessage) ([]P, error) {
	if len(raw) == 0 {
		return nil, errors.New("missing centers")
	}
	var out []P
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parsing centers: %w", err)
	}
	return out, nil
}

// Stats is the per-request telemetry block every workload response carries.
type Stats struct {
	Shard    int     `json:"shard"`
	QueueMS  float64 `json:"queue_ms"`
	ExecMS   float64 `json:"exec_ms"`
	CacheHit bool    `json:"cache_hit"`
}

// SolveResponse answers POST /v1/solve. Centers holds min(k, n) centers
// for an instance of n points: a k above n is clamped, not rejected.
type SolveResponse[C any] struct {
	Assign          []int   `json:"assign"`
	Centers         C       `json:"centers"`
	CertainRadius   float64 `json:"certain_radius"`
	Ecost           float64 `json:"ecost"`
	EcostUnassigned float64 `json:"ecost_unassigned"`
	EffectiveEps    float64 `json:"effective_eps"`
	Stats           Stats   `json:"stats"`
}

// AssignResponse answers POST /v1/assign.
type AssignResponse struct {
	Assign []int `json:"assign"`
	Stats  Stats `json:"stats"`
}

// EcostResponse answers POST /v1/ecost.
type EcostResponse struct {
	Ecost float64 `json:"ecost"`
	Stats Stats   `json:"stats"`
}

// SweepResponse answers POST /v1/sweep.
type SweepResponse[C any] struct {
	Snapped C           `json:"snapped"`
	Stats   Stats       `json:"stats"`
	Sweep   [][]float64 `json:"sweep"`
}

// UnassignedResponse answers POST /v1/unassigned. Centers holds at most
// min(k, m) of the instance's m candidates: a k above m is clamped, and
// duplicate candidates can end the farthest-first seed with fewer.
type UnassignedResponse[C any] struct {
	Centers C       `json:"centers"`
	Ecost   float64 `json:"ecost"`
	Stats   Stats   `json:"stats"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Message string `json:"error"`
}

// Registered answers PUT /v1/instances/{name}.
type Registered struct {
	Instance string `json:"instance"`
	Kind     string `json:"kind"`
	Points   int    `json:"points"`
}

// Unregistered answers DELETE /v1/instances/{name}.
type Unregistered struct {
	Instance     string `json:"instance"`
	Unregistered bool   `json:"unregistered"`
}

// Frozen answers POST /v1/instances/{name}/freeze.
type Frozen struct {
	Bytes    int64  `json:"bytes"`
	Instance string `json:"instance"`
	Kind     string `json:"kind"`
	Path     string `json:"path"`
}

// Instance is one row of List.
type Instance struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// List answers GET /v1/instances.
type List struct {
	Instances []Instance `json:"instances"`
}
