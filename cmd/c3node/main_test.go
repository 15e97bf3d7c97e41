package main

import (
	"strings"
	"testing"
)

// TestIsWorker: only a first argument of -worker or --worker starts a
// worker; the word anywhere else, a flag's value included, does not.
func TestIsWorker(t *testing.T) {
	for _, c := range []struct {
		args []string
		want bool
	}{
		{[]string{"c3node", "-worker", "-rank", "1"}, true},
		{[]string{"c3node", "--worker", "-rank", "1"}, true},
		{[]string{"c3node", "-ranks", "2", "-json", "worker"}, false},
		{[]string{"c3node", "-ranks", "2", "-worker"}, false},
		{[]string{"c3node", "worker"}, false},
		{[]string{"c3node"}, false},
	} {
		if got := isWorker(c.args); got != c.want {
			t.Errorf("isWorker(%q) = %v, want %v", c.args[1:], got, c.want)
		}
	}
}

// TestParseKillRejectsRankOutsideWorld: a kill spec naming a rank outside
// [0, ranks) is refused, as the launcher refuses an external kill's.
func TestParseKillRejectsRankOutsideWorld(t *testing.T) {
	for _, spec := range []string{"rank=5,at=3", "rank=2,at=3", "rank=-1,at=3"} {
		if _, err := parseKill(spec, 2); err == nil || !strings.Contains(err.Error(), "out of range [0,2)") {
			t.Errorf("parseKill(%q, 2) = %v, want an out-of-range error", spec, err)
		}
	}
	spec, err := parseKill("rank=1,at=3,after=2", 2)
	if err != nil || spec.Rank != 1 || spec.AtPragma != 3 || spec.AfterCheckpoints != 2 {
		t.Fatalf("parseKill of rank 1 in a 2-rank world = %+v, %v", spec, err)
	}
	if spec, err := parseKill("", 2); spec != nil || err != nil {
		t.Fatalf("an empty kill spec parsed as %+v, %v", spec, err)
	}
}
