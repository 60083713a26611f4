package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dmlscale/internal/core"
)

// TestGoldenJSON runs the command on every example suite at -parallel 1 and
// 2 and compares its -format json output byte for byte with the committed
// testdata/<suite>.golden.json. Refactors must leave these bytes alone; a
// deliberate change regenerates them by hand:
//
//	go run ./cmd/dmls-sweep -suite examples/suites/<suite>.json -format json -parallel 1 \
//	    > cmd/dmls-sweep/testdata/<suite>.golden.json
func TestGoldenJSON(t *testing.T) {
	suites, err := filepath.Glob("../../examples/suites/*.json")
	if err != nil || len(suites) == 0 {
		t.Fatalf("no example suites found: %v", err)
	}
	defer core.SetParallelism(core.Parallelism())
	for _, suite := range suites {
		name := strings.TrimSuffix(filepath.Base(suite), ".json")
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 2} {
			var stdout, stderr bytes.Buffer
			args := []string{"-suite", suite, "-format", "json", "-parallel", strconv.Itoa(parallel)}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s at -parallel %d: exit %d: %s", name, parallel, code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s at -parallel %d: output differs from testdata/%s.golden.json", name, parallel, name)
			}
		}
	}
}
