package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at tiny sizes against
// a freshly built ukserver and checks the printed metrics against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots ukserver")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out := t.TempDir()
	bin, err := buildServer(ctx, root, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSmoke(ctx, config{root: root, out: out, server: bin, seed: 1}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}
