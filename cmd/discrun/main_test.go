package main

import (
	"encoding/json"
	"os"
	"testing"

	"godisc/internal/graph"
	"godisc/internal/models"
)

func TestRunVerifiesModels(t *testing.T) {
	for _, m := range []string{"mlp", "gpt2"} {
		if err := run(m, "T4", 2, "4,9", true, 4, ""); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run("nope", "A10", 2, "4", true, 1, ""); err == nil {
		t.Fatal("unknown model must error")
	}
	if err := run("mlp", "H100", 2, "4", true, 1, ""); err == nil {
		t.Fatal("unknown device must error")
	}
	if err := run("mlp", "A10", 2, "x", true, 1, ""); err == nil {
		t.Fatal("bad seq list must error")
	}
}

// TestRunTraceOut runs a model with -trace-out and checks the Chrome
// trace file records one exec root per sequence length.
func TestRunTraceOut(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	if err := run("mlp", "A10", 2, "4,9,16", true, 2, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace file is not chrome trace JSON: %v", err)
	}
	roots := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph=%q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "exec" {
			roots++
		}
	}
	if roots != 3 {
		t.Errorf("exec root spans = %d, want 3 (one per seq)", roots)
	}
}

func TestRunArtifact(t *testing.T) {
	// Serialize a zoo model and run it back through the artifact path.
	dir := t.TempDir()
	path := dir + "/m.disc"
	m, err := models.ByName("dlrm")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(graph.WriteText(m.Build())), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runArtifact(path, "", "A10", 2, ""); err != nil {
		t.Fatal(err)
	}
	if err := runArtifact(path, "dZZZ=4", "A10", 1, ""); err == nil {
		t.Fatal("unknown binding must error")
	}
}
