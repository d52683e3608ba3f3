package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestSweepCSVGolden pins the whole CSV of non-node axis sweeps by
// SHA-256: the seed rule (base seed + repeat), the per-axis Config
// mapping and the repeat averaging all feed these bytes.
func TestSweepCSVGolden(t *testing.T) {
	for _, c := range []struct {
		args []string
		sha  string
	}{
		{[]string{"-axis", "loss", "-values", "0,0.1", "-duration", "20s", "-repeats", "2"},
			"c01515e567407e4a01f57b3d8ce15b21d2712cbb1dea5d4a52d4f6c637820c0d"},
		{[]string{"-axis", "interval-ms", "-values", "200,400", "-duration", "20s", "-repeats", "2"},
			"590fad1ccf3dcaf0acd633407b7fc9fe6e9a6fbe9e45e46929d317ea10d967bf"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != c.sha {
			t.Errorf("%v: CSV SHA-256 drifted: got %s want %s\n%s", c.args, got, c.sha, out.String())
		}
	}
}

// TestSweepRejectsUnknownAxis keeps the axis error in field+value style.
func TestSweepRejectsUnknownAxis(t *testing.T) {
	err := run([]string{"-axis", "warp"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `axis "warp": unknown`) {
		t.Errorf("want unknown-axis error, got %v", err)
	}
}
