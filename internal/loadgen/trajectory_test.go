package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prioritystar/internal/stats"
)

// sampleRecord builds a minimal valid run record.
func sampleRecord(p95 int64) Record {
	var sk stats.Sketch
	for i := int64(0); i < 50; i++ {
		sk.Add(p95)
	}
	return Record{
		Time: "2026-08-08T00:00:00Z", GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		Clients: 10, DurationSec: 5, Seed: 1, Mix: "mixed",
		Ops: map[string]OpRecord{
			KeySubmit: {Count: 50, P50us: p95, P95us: p95, P99us: p95, MaxUs: p95,
				MeanUs: float64(p95), Sketch: &sk},
		},
		ThroughputOps: 100, TotalOps: 50,
	}
}

// TestTrajectoryAppendAndRead pins the append-then-read cycle: header
// written once, records accumulate, Last returns the newest.
func TestTrajectoryAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := AppendRecord(path, sampleRecord(2000)); err != nil {
		t.Fatal(err)
	}
	if err := AppendRecord(path, sampleRecord(3000)); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
	if got := tr.Last().Ops[KeySubmit].P95us; got != 3000 {
		t.Errorf("last p95 = %d, want 3000", got)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), TrajectorySchema); n != 1 {
		t.Errorf("header appears %d times, want 1", n)
	}
}

// TestCommittedTrajectoryReads: the committed BENCH_serve.json still reads
// and gates through the trajectory reader, and every sketch in it decodes
// and re-encodes to the exact bytes on disk, so the codec cannot drift
// from the recorded history.
func TestCommittedTrajectoryReads(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_serve.json")
	tr, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if last := tr.Last(); last == nil {
		t.Fatal("committed trajectory has no records")
	} else if v := Gate(last, last, 0.1); len(v) != 0 {
		t.Errorf("newest record fails a gate against itself: %v", v)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sketches := 0
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n"))[1:] {
		var rec struct {
			Ops map[string]struct {
				Sketch json.RawMessage `json:"sketch"`
			} `json:"ops"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		for name, op := range rec.Ops {
			if op.Sketch == nil {
				continue
			}
			var sk stats.Sketch
			if err := json.Unmarshal(op.Sketch, &sk); err != nil {
				t.Fatalf("record %d op %s: %v", i, name, err)
			}
			out, err := json.Marshal(&sk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, op.Sketch) {
				t.Errorf("record %d op %s: round trip changed bytes:\n%s\n%s", i, name, op.Sketch, out)
			}
			sketches++
		}
	}
	if sketches == 0 {
		t.Fatal("no sketches found in the committed trajectory")
	}
}

// TestTrajectoryTornTailTrimmedOnAppend: a psload killed mid-append leaves
// a torn final line; the strict reader flags it, the next append heals it.
func TestTrajectoryTornTailTrimmedOnAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := AppendRecord(path, sampleRecord(2000)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"time":"2026-08-08","clients":3,"ops":{"su`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Strict read reports the torn tail as a typed error.
	_, err = ReadTrajectory(path)
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("read of torn file = %v, want ErrTornTail", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Line != 3 {
		t.Fatalf("error = %#v, want *FormatError at line 3", err)
	}

	// Append trims the tear and keeps every intact record.
	if err := AppendRecord(path, sampleRecord(4000)); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 || tr.Last().Ops[KeySubmit].P95us != 4000 {
		t.Fatalf("healed trajectory = %d records, last p95 %d; want 2 records, 4000",
			len(tr.Records), tr.Last().Ops[KeySubmit].P95us)
	}
}

// TestTrajectoryRejectsBadDocuments enumerates reader rejections: wrong
// schema, interior corruption, impossible records — all typed errors.
func TestTrajectoryRejectsBadDocuments(t *testing.T) {
	header := `{"schema":"` + TrajectorySchema + `"}` + "\n"
	rec, _ := json.Marshal(sampleRecord(2000))
	cases := map[string]string{
		"empty":             "",
		"v-next schema":     `{"schema":"prioritystar-serve/v2"}` + "\n",
		"header not json":   "BENCH\n",
		"header extra keys": `{"schema":"` + TrajectorySchema + `","x":1}` + "\n",
		"interior garbage":  header + "not json\n" + string(rec) + "\n",
		"negative clients":  header + `{"clients":-1,"ops":{}}` + "\n",
		"non-monotone quantiles": header +
			`{"clients":1,"duration_sec":1,"ops":{"submit":{"count":50,"p50_us":90,"p95_us":10,"p99_us":95,"max_us":99}}}` + "\n",
		"sketch/count mismatch": header +
			`{"clients":1,"duration_sec":1,"ops":{"submit":{"count":3,"p50_us":1,"p95_us":1,"p99_us":1,"max_us":1,` +
			`"sketch":{"v":1,"count":2,"sum":2,"min":1,"max":1,"buckets":[[1,2]]}}}}` + "\n",
	}
	for name, doc := range cases {
		if _, _, err := ParseTrajectory([]byte(doc)); err == nil {
			t.Errorf("%s: parsed without error", name)
		} else if !errors.As(err, new(*FormatError)) {
			t.Errorf("%s: error %v is not a *FormatError", name, err)
		}
	}
	// AppendRecord refuses to extend a corrupt (non-torn) file.
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("BENCH\n"), 0o644)
	if err := AppendRecord(path, sampleRecord(2000)); err == nil {
		t.Error("AppendRecord extended a corrupt file")
	}
}

// TestGate pins the regression gate: within tolerance passes, a doctored
// 2x-faster baseline fails on quantiles and throughput, small samples and
// sub-millisecond baselines are ignored.
func TestGate(t *testing.T) {
	base := sampleRecord(100000) // 100ms p95/p99
	fresh := sampleRecord(120000)
	if fails := Gate(&fresh, &base, 0.75); len(fails) != 0 {
		t.Errorf("20%% slower failed a 75%% gate: %v", fails)
	}

	doctored := DoctorBaseline(&fresh, 2)
	fails := Gate(&fresh, doctored, 0.75)
	if len(fails) == 0 {
		t.Fatal("gate passed against a 2x-faster doctored baseline")
	}
	text := strings.Join(fails, "\n")
	for _, want := range []string{"p95", "p99", "throughput"} {
		if !strings.Contains(text, want) {
			t.Errorf("gate failures missing %q:\n%s", want, text)
		}
	}

	// Sub-millisecond baselines are floored: 500us -> 900us is noise.
	tiny, slower := sampleRecord(500), sampleRecord(900)
	slower.ThroughputOps = tiny.ThroughputOps
	if fails := Gate(&slower, &tiny, 0.75); len(fails) != 0 {
		t.Errorf("sub-millisecond jitter tripped the gate: %v", fails)
	}

	// Non-SLO ops (metrics scrapes, result fetches) never gate: their tail
	// quantiles swing ~2x between identical runs on a loaded box.
	noisyBase, noisyFresh := sampleRecord(100000), sampleRecord(100000)
	noisyBase.Ops[KeyMetrics] = OpRecord{Count: 100, P50us: 100000, P95us: 100000, P99us: 100000, MaxUs: 100000}
	noisyFresh.Ops[KeyMetrics] = OpRecord{Count: 100, P50us: 900000, P95us: 900000, P99us: 900000, MaxUs: 900000}
	if fails := Gate(&noisyFresh, &noisyBase, 0.75); len(fails) != 0 {
		t.Errorf("an ancillary op tripped the gate: %v", fails)
	}

	// Too few samples: no verdict.
	small := sampleRecord(100000)
	op := small.Ops[KeySubmit]
	op.Count = 3
	op.Sketch = nil
	small.Ops[KeySubmit] = op
	fresh2 := sampleRecord(900000)
	fresh2.ThroughputOps = small.ThroughputOps
	if fails := Gate(&fresh2, &small, 0.75); len(fails) != 0 {
		t.Errorf("gate judged a 3-sample baseline: %v", fails)
	}
}

// FuzzTrajectoryReader hammers the strict reader: arbitrary bytes must
// yield a clean parse or a typed error — never a panic — and ErrTornTail
// must always come with a usable intact-prefix length.
func FuzzTrajectoryReader(f *testing.F) {
	header := `{"schema":"` + TrajectorySchema + `"}` + "\n"
	rec, _ := json.Marshal(sampleRecord(2000))
	f.Add([]byte(header))
	f.Add([]byte(header + string(rec) + "\n"))
	f.Add([]byte(header + string(rec))) // torn: no trailing newline
	f.Add([]byte(`{"schema":"prioritystar-serve/v9"}` + "\n"))
	f.Add([]byte("\xff\xfe"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, intact, err := ParseTrajectory(data)
		if err == nil {
			if intact != len(data) {
				t.Fatalf("clean parse but intact %d != len %d", intact, len(data))
			}
			return
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v is not a *FormatError", err)
		}
		if errors.Is(err, ErrTornTail) {
			if intact < 0 || intact > len(data) {
				t.Fatalf("torn tail with intact %d outside [0,%d]", intact, len(data))
			}
			// The intact prefix must itself parse (or be empty).
			if intact > 0 {
				if _, _, err2 := ParseTrajectory(data[:intact]); err2 != nil {
					t.Fatalf("intact prefix does not parse: %v", err2)
				}
			}
			_ = tr
		}
	})
}
