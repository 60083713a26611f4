package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestExitPolicy pins the exit codes and closing stderr lines both suite
// commands share: 130 on interrupt (with a resume hint when journaling), 1
// on a journal error even when every scenario succeeded, 1 on any failure
// unless -keep-going tolerates a partial one.
func TestExitPolicy(t *testing.T) {
	journalErr := errors.New("disk full")
	cases := []struct {
		name          string
		flags         Flags
		interrupted   bool
		ckptErr       error
		failed, total int
		want          int
		stderr        []string
	}{
		{name: "clean", total: 3, want: 0},
		{name: "partial", failed: 1, total: 3, want: 1, stderr: []string{"1 of 3 scenarios failed"}},
		{name: "partial keep-going", flags: Flags{KeepGoing: true}, failed: 1, total: 3, want: 0},
		{name: "all failed keep-going", flags: Flags{KeepGoing: true}, failed: 3, total: 3, want: 1, stderr: []string{"all 3 scenarios failed"}},
		{name: "journal error", ckptErr: journalErr, total: 3, want: 1, stderr: []string{"checkpoint: disk full"}},
		{name: "interrupted", interrupted: true, failed: 2, total: 3, want: 130, stderr: []string{"interrupted; partial results above (1 of 3 cells)"}},
		{name: "interrupted with journal", flags: Flags{Suite: "s.json", Checkpoint: "j"}, interrupted: true, total: 3, want: 130,
			stderr: []string{"resume with: -suite s.json -checkpoint j -resume"}},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		r := &Run{Cmd: "cmd", Flags: tc.flags, Stderr: &stderr, interrupted: tc.interrupted, ckptErr: tc.ckptErr}
		if got := r.Exit("1 of 3 cells", tc.failed, tc.total); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
		for _, want := range tc.stderr {
			if !strings.Contains(stderr.String(), "cmd: "+want) {
				t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), want)
			}
		}
	}
}

// TestFinishSeparatesInterruptFromFailure: cancellation lets the caller
// render partial results; any other evaluation error comes back to Fail.
func TestFinishSeparatesInterruptFromFailure(t *testing.T) {
	r := &Run{Cmd: "cmd", Stderr: &bytes.Buffer{}}
	if err := r.Finish(fmt.Errorf("cell: %w", context.Canceled)); err != nil || !r.interrupted {
		t.Fatalf("cancelled run: err %v, interrupted %v", err, r.interrupted)
	}
	bad := errors.New("bad suite")
	if err := r.Finish(bad); err != bad || r.interrupted {
		t.Fatalf("failed run: err %v, interrupted %v", err, r.interrupted)
	}
}
