package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryAppend walks a trajectory through its life: a legacy v2
// document becomes the first record on the first append, later appends
// keep every earlier line byte for byte, and latest returns the newest
// record.
func TestTrajectoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	legacy := `{
  "schema": "prioritystar-bench/v2",
  "go_version": "go1.24.0",
  "goos": "linux",
  "goarch": "amd64",
  "benchmarks": [{"name": "engine/8x8/rho0.2", "iterations": 3, "ns_per_op": 1, "bytes_per_op": 0, "allocs_per_op": 0, "slots_per_sec": 100, "slots_per_iter": 2000}]
}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := latest(path, false); err != nil || r.Benchmarks[0].SlotsPerSec != 100 {
		t.Fatalf("legacy document: latest = %+v, %v", r, err)
	}
	rec := func(rev string, slots float64) Record {
		return Record{Rev: rev, GoVersion: "go1.24.0", Benchmarks: []Measurement{{Name: "engine/8x8/rho0.2", SlotsPerSec: slots}}}
	}
	if err := appendRecord(path, rec("aaa", 200)); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(first), "\n"), "\n")
	if len(lines) != 3 || lines[0] != `{"schema":"prioritystar-bench/v3"}` || !strings.Contains(lines[1], `"schema":"prioritystar-bench/v2"`) {
		t.Fatalf("converted trajectory:\n%s", first)
	}
	if err := appendRecord(path, rec("bbb", 300)); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(second), string(first)) {
		t.Fatalf("append rewrote earlier lines:\n%s\nthen\n%s", first, second)
	}
	r, err := latest(path, false)
	if err != nil || r.Rev != "bbb" || r.Benchmarks[0].SlotsPerSec != 300 {
		t.Fatalf("latest = %+v, %v; want the bbb record", r, err)
	}
	recs, legacyOut, err := parseTrajectory(second)
	if err != nil || legacyOut || len(recs) != 3 {
		t.Fatalf("parse: %d records, legacy %v, %v", len(recs), legacyOut, err)
	}
}

func TestTrajectoryAppendCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.json")
	if err := appendRecord(path, Record{Rev: "ccc"}); err != nil {
		t.Fatal(err)
	}
	if r, err := latest(path, false); err != nil || r.Rev != "ccc" {
		t.Fatalf("latest = %+v, %v", r, err)
	}
}

// TestLatestMatchesSize: a quick run compares with the latest quick record
// and a full run with the latest full one, whatever their order; a file
// with records of one size only serves both.
func TestLatestMatchesSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	for _, r := range []Record{{Rev: "full1"}, {Rev: "quick1", Quick: true}, {Rev: "full2"}} {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	for quick, want := range map[bool]string{false: "full2", true: "quick1"} {
		if r, err := latest(path, quick); err != nil || r.Rev != want {
			t.Errorf("latest(quick=%v) = %+v, %v; want %s", quick, r, err, want)
		}
	}
	only := filepath.Join(t.TempDir(), "full-only.json")
	if err := appendRecord(only, Record{Rev: "full"}); err != nil {
		t.Fatal(err)
	}
	if r, err := latest(only, true); err != nil || r.Rev != "full" {
		t.Errorf("latest(quick) on a full-only file = %+v, %v; want the full record", r, err)
	}
}

func TestTrajectoryRejectsUnknownSchema(t *testing.T) {
	for name, doc := range map[string]string{
		"header":   "{\"schema\":\"prioritystar-bench/v9\"}\n{}\n",
		"document": "{\n\"schema\": \"other\",\n\"benchmarks\": []\n}\n",
		"garbage":  "not json\n",
	} {
		if _, _, err := parseTrajectory([]byte(doc)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(path, Record{}); err == nil {
		t.Error("append to a corrupt file succeeded")
	}
}
