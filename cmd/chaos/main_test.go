package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestDefenseColumnsCSVGolden pins the CSV contract of the -defense
// sweep: the header names every column exactly once, each row carries
// exactly one field per header column, and the (value, defense,
// protocol) grid matches the documented column set — `all` emits the
// off and trust stacks for all three protocols, the revoke stack for
// the two rotating AGFW stacks, and the authack stack for AGFW proper
// only. A misaligned emit loop (the aggregation is position-based)
// would scramble rows before it broke any numeric assertion, so the
// golden grid is the real guard; the SHA-256 of the whole CSV pins the
// numbers too.
func TestDefenseColumnsCSVGolden(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-axis", "ackspoof", "-values", "0,0.2", "-defense", "all",
		"-nodes", "25", "-duration", "12s", "-seed", "3", "-parallel", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")

	goldenHeader := "axis,ackspoof,defense,protocol,sent,delivered,pdf,avg_latency_ms,dropped,in_flight,adversary_drops,spoof_settles,quarantines,fading_losses,jam_losses,bad_macs,tag_rejects,openings"
	if lines[0] != goldenHeader {
		t.Errorf("header drifted:\ngot  %s\nwant %s", lines[0], goldenHeader)
	}
	goldenGrid := []string{
		"ackspoof,0,off,GPSR-Greedy",
		"ackspoof,0,off,AGFW",
		"ackspoof,0,off,AGFW-noACK",
		"ackspoof,0,trust,GPSR-Greedy",
		"ackspoof,0,trust,AGFW",
		"ackspoof,0,trust,AGFW-noACK",
		"ackspoof,0,revoke,AGFW",
		"ackspoof,0,revoke,AGFW-noACK",
		"ackspoof,0,authack,AGFW",
		"ackspoof,0.2,off,GPSR-Greedy",
		"ackspoof,0.2,off,AGFW",
		"ackspoof,0.2,off,AGFW-noACK",
		"ackspoof,0.2,trust,GPSR-Greedy",
		"ackspoof,0.2,trust,AGFW",
		"ackspoof,0.2,trust,AGFW-noACK",
		"ackspoof,0.2,revoke,AGFW",
		"ackspoof,0.2,revoke,AGFW-noACK",
		"ackspoof,0.2,authack,AGFW",
	}
	rows := lines[1:]
	if len(rows) != len(goldenGrid) {
		t.Fatalf("row count: got %d want %d\n%s", len(rows), len(goldenGrid), out.String())
	}
	cols := strings.Count(goldenHeader, ",") + 1
	for i, row := range rows {
		fields := strings.Split(row, ",")
		if len(fields) != cols {
			t.Errorf("row %d: %d fields, header has %d: %s", i, len(fields), cols, row)
			continue
		}
		if got := strings.Join(fields[:4], ","); got != goldenGrid[i] {
			t.Errorf("row %d grid: got %s want %s", i, got, goldenGrid[i])
		}
	}
	const goldenSHA = "638b41eb325e0ee5596229f79622c1b9be6ef730a2862d6b0f6c82abe6d3a59f"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != goldenSHA {
		t.Errorf("CSV SHA-256 drifted: got %s want %s\n%s", got, goldenSHA, out.String())
	}
}

// TestDefenseFlagRejectsUnknown keeps the flag error in the config
// layer's field+value style.
func TestDefenseFlagRejectsUnknown(t *testing.T) {
	err := run([]string{"-defense", "maximal"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `defense: value "maximal"`) {
		t.Errorf("want field+value error for unknown defense, got %v", err)
	}
}
