package main

import (
	"bytes"
	"os"
	"testing"
)

// TestFigureSweepGolden pins the whole -fig all sweep, every figure
// and table the paper evaluation regenerates, byte for byte. After an
// intended output change, regenerate the golden with
//
//	go run ./cmd/figures -fig all > cmd/figures/testdata/all.golden
func TestFigureSweepGolden(t *testing.T) {
	const golden = "testdata/all.golden"
	var buf bytes.Buffer
	if err := run(&buf, "all", false, "BT", 0, false, ""); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("-fig all differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("-fig all differs from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
