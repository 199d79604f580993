package rankfair_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenAuditPath holds one "<dataset> <measure> <sha256>" line per audit.
var goldenAuditPath = filepath.Join("testdata", "audit_json_sha256.golden")

// TestAuditJSONGolden pins the served audit report bytes — WriteJSON output
// with the "stats" block included — for one audit per measure, as content
// hashes. A change to the search engine, its routing or its counters that
// alters any served byte fails here; regenerate with -update only when the
// report change is intended. Serialized stats are worker-independent, so
// serial and fanned-out runs must hash the same. The german input is large
// enough that the per-node cost model routes some intersections to bitmaps,
// so its stats pin the bitmap/slice split as well.
func TestAuditJSONGolden(t *testing.T) {
	datasets := []struct {
		name    string
		bundle  *synth.Bundle
		attrs   int
		params  []rankfair.AuditParams
		bitmaps bool // the case must exercise the bitmap arm
	}{
		{"students-260", synth.Students(260, 7), 8, statsCases(5, 15), false},
		{"german-4096", synth.GermanCredit(4096, 5), 4, streamAuditParams(10, 200), true},
	}
	var got bytes.Buffer
	for _, ds := range datasets {
		in, err := ds.bundle.InputAttrs(ds.attrs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := rankfair.NewFromInput(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		var bitmapPasses int64
		for _, params := range ds.params {
			sum, passes := auditHash(t, a, params)
			bitmapPasses += passes
			fmt.Fprintf(&got, "%s %s %s\n", ds.name, params.Measure, sum)
		}
		if ds.bitmaps && bitmapPasses == 0 {
			t.Errorf("%s: no audit took a bitmap pass", ds.name)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenAuditPath, got.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenAuditPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("served audit JSON drifted from golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// auditHash returns the hex SHA-256 of one audit's WriteJSON bytes, run
// serially and with three workers (the two runs must agree), and the
// audit's bitmap pass count.
func auditHash(t *testing.T, a *rankfair.Analyst, params rankfair.AuditParams) (sum string, bitmapPasses int64) {
	t.Helper()
	for _, workers := range []int{1, 3} {
		params.Workers = workers
		report, err := a.Detect(params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		s := hex.EncodeToString(h[:])
		if sum != "" && s != sum {
			t.Errorf("%s: workers=%d report hash %s differs from serial %s", params.Measure, workers, s, sum)
		}
		sum = s
		bitmapPasses = report.Search.BitmapPasses
	}
	return sum, bitmapPasses
}
