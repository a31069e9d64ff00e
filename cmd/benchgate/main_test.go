package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octostore/internal/loadgen"
	"octostore/internal/server"
)

func report(opsPerSec, imbalance float64, rb *server.RebalanceStats) *loadgen.Report {
	return &loadgen.Report{OpsPerSec: opsPerSec, ImbalanceRatio: imbalance, Rebalance: rb}
}

func write(t *testing.T, rep *loadgen.Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRules(t *testing.T) {
	moved := &server.RebalanceStats{Completed: 7, FilesMoved: 62}
	violated := report(1000, 1, nil)
	violated.Violations = []string{"ledger: leaked 1 byte"}
	// A report written by an octoload that predates a block decodes with the
	// block's zero value — the gate must fail it, not wait it out.
	noImbalance := write(t, report(1000, 0, nil))
	stripped, err := os.ReadFile(noImbalance)
	if err != nil {
		t.Fatal(err)
	}
	stripped = bytes.Replace(stripped, []byte(`"imbalance_ratio":0,`), nil, 1)
	if err := os.WriteFile(noImbalance, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		rule    string
		off, on string
		exit    int
		failing string // a check that must be reported FAIL; "" for none
	}{
		{"overhead pass", "overhead", write(t, report(1000, 1, nil)), write(t, report(960, 1, nil)), 0, ""},
		{"overhead fail", "overhead", write(t, report(1000, 1, nil)), write(t, report(940, 1, nil)), 1, "overhead:ops_per_sec"},
		{"overhead missing throughput", "overhead", write(t, report(1000, 1, nil)), write(t, report(0, 1, nil)), 1, "overhead:ops_per_sec"},
		{"overhead violations", "overhead", write(t, report(1000, 1, nil)), write(t, violated), 1, "overhead:violations"},
		{"skew pass", "skew", write(t, report(1000, 3, nil)), write(t, report(1300, 2.5, moved)), 0, ""},
		{"skew slow", "skew", write(t, report(1000, 3, nil)), write(t, report(1299, 2, moved)), 1, "skew:ops_per_sec"},
		{"skew not flatter", "skew", write(t, report(1000, 3, nil)), write(t, report(2000, 2.6, moved)), 1, "skew:imbalance_ratio"},
		{"skew vacuous", "skew", write(t, report(1000, 3, nil)), write(t, report(2000, 1.5, &server.RebalanceStats{Started: 3})), 1, "skew:not_vacuous"},
		{"skew missing rebalance block", "skew", write(t, report(1000, 3, nil)), write(t, report(2000, 1.5, nil)), 1, "skew:not_vacuous"},
		{"skew missing imbalance", "skew", noImbalance, write(t, report(2000, 1.5, moved)), 1, "skew:imbalance_ratio"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			exit := run([]string{"-" + tc.rule + "-off", tc.off, "-" + tc.rule + "-on", tc.on}, &stdout, &stderr)
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\n%s%s", exit, tc.exit, &stdout, &stderr)
			}
			for _, line := range strings.Split(stdout.String(), "\n") {
				failed := strings.HasPrefix(line, "FAIL")
				named := tc.failing != "" && strings.Contains(line, tc.failing+" ")
				if failed != named {
					t.Errorf("want exactly %q to FAIL, got line %q", tc.failing, line)
				}
			}
		})
	}
}

func TestUsage(t *testing.T) {
	ok := write(t, report(1000, 1, nil))
	for name, args := range map[string][]string{
		"no rule":         nil,
		"half a pair":     {"-overhead-off", ok},
		"unreadable":      {"-overhead-off", ok, "-overhead-on", filepath.Join(t.TempDir(), "absent.json")},
		"retired flag":    {"-serve-old", ok, "-serve-new", ok},
		"retired tunable": {"-overhead-off", ok, "-overhead-on", ok, "-overhead-threshold", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if exit := run(args, &stdout, &stderr); exit != 2 {
			t.Errorf("%s: exit %d, want 2\n%s%s", name, exit, &stdout, &stderr)
		}
	}
}
