package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestRepeatCSVGolden pins -repeat's seed battery (base seed, then
// base+1) and its one-line-per-run CSV by SHA-256.
func TestRepeatCSVGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-duration", "20s", "-repeat", "2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	const goldenSHA = "5b15ea787249692db59cbaf51d1c91a50b86b5ac06de44e95007a125e3e3b5d8"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != goldenSHA {
		t.Errorf("CSV SHA-256 drifted: got %s want %s\n%s", got, goldenSHA, out.String())
	}
}
