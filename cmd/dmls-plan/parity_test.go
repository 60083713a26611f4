package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dmlscale/internal/serve"
)

// TestKnobParityWithServe: the CLI and the service reject the same planner
// knobs with the same planner message — dmls-plan exits 1, /v1/plan answers
// 400. Both front ends hand the knobs to the planner, which owns the checks.
func TestKnobParityWithServe(t *testing.T) {
	const suitePath = "../../examples/suites/plan-tta.json"
	suite, err := os.ReadFile(suitePath)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	cases := []struct {
		name  string
		flags []string
		field string
	}{
		{"negative refine", []string{"-refine", "-1"}, `"refine": -1`},
		{"negative max cost", []string{"-max-cost", "-1"}, `"max_cost": -1`},
		{"negative max time", []string{"-max-time", "-5m"}, `"max_time": "-5m"`},
		{"unknown objective", []string{"-objective", "fastest"}, `"objective": "fastest"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-suite", suitePath, "-format", "json"}, tc.flags...)
			if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
				t.Fatalf("dmls-plan %v: exit %d, want 1\nstderr: %s", tc.flags, code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("dmls-plan %v rendered a report for rejected knobs:\n%s", tc.flags, stdout.String())
			}
			cliMsg := strings.TrimSpace(strings.TrimPrefix(stderr.String(), "dmls-plan: "))

			body := `{"suite": ` + string(suite) + `, ` + tc.field + `}`
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("/v1/plan with %s: status %d, want 400: %s", tc.field, rec.Code, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if want := "bad plan request: " + cliMsg; e.Error != want {
				t.Errorf("messages differ:\n/v1/plan:  %s\ndmls-plan: %s", e.Error, cliMsg)
			}
		})
	}
}
