package core

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestDesignListsSpecCounters keeps DESIGN.md's metric inventory generated
// from statTable: the spec. row lists every counter name, in table order.
func TestDesignListsSpecCounters(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, numStats)
	for k, e := range statTable {
		names[k] = "`" + e.name + "`"
	}
	want := "| `spec.` | " + strings.Join(names, ", ") +
		" (counters, one per `core.Stats` field, each the sum of that field over every session of the engine) |"
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "| `spec.` |") {
			if line != want {
				t.Errorf("DESIGN.md spec. row is stale; regenerate it as:\n%s", want)
			}
			return
		}
	}
	t.Errorf("DESIGN.md has no spec. row; add:\n%s", want)
}

// TestStatsAddAndCounters checks that statTable covers every Stats field
// once, that Add sums and that Counters reports every field, durations
// included.
func TestStatsAddAndCounters(t *testing.T) {
	if n := reflect.TypeOf(Stats{}).NumField(); n != int(numStats) {
		t.Fatalf("Stats has %d fields, statTable %d", n, numStats)
	}
	var a, b Stats
	for k := stat(0); k < numStats; k++ {
		a.add(k, int64(k)+1)
		b.add(k, 100)
	}
	a.Add(b)
	c := a.Counters()
	if len(c) != int(numStats) {
		t.Fatalf("%d counters, want %d: duplicate name in statTable", len(c), numStats)
	}
	for k, e := range statTable {
		if got, want := c[e.name], int64(k)+101; got != want {
			t.Errorf("%s = %d, want %d", e.name, got, want)
		}
	}
}

func TestCheckQuiesced(t *testing.T) {
	for _, c := range []struct {
		st Stats
		ok bool
	}{
		{Stats{}, true},
		{Stats{Issued: 2, Shed: 1, DeadlineAborts: 1}, true},
		{Stats{Issued: 1}, false},
		{Stats{Issued: 1, CanceledAtGo: 1, PredictedIssued: 1, PredictedCanceled: 1}, true},
		{Stats{Issued: 1, Completed: 1, PredictedIssued: 1}, false},
	} {
		if err := c.st.CheckQuiesced(); (err == nil) != c.ok {
			t.Errorf("%+v: CheckQuiesced() = %v, want ok=%v", c.st, err, c.ok)
		}
	}
}
