package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current kernel")

// The two scenarios the determinism suite locks down: Fig 6 exercises the
// devlib token policy end to end on one GPU, Fig 8a exercises the whole
// cluster stack (scheduler, kubelets, devlib, workload generator) under both
// systems. Both must be byte-identical run-to-run AND identical to the
// tables recorded from the pre-optimization kernel.
func fig6Golden(t *testing.T) string {
	t.Helper()
	res, err := Fig6(Fig6Config{Stagger: 60 * time.Second, SampleEvery: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return res.Table.String()
}

func fig8Golden(t *testing.T) string {
	t.Helper()
	tb, err := Fig8a(Fig8Config{
		Jobs: 30, Nodes: 2, GPUsPerNode: 4, JobDuration: 20 * time.Second,
	}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged from the recorded pre-change golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFig6DeterminismGolden runs Fig 6 twice with the same seed and asserts
// byte-identical metrics.Table output, then matches the recorded golden.
func TestFig6DeterminismGolden(t *testing.T) {
	first := fig6Golden(t)
	second := fig6Golden(t)
	if first != second {
		t.Fatalf("Fig6 not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "fig6_table.golden", first)
}

// TestFig8DeterminismGolden does the same for the full-stack Fig 8a sweep.
func TestFig8DeterminismGolden(t *testing.T) {
	first := fig8Golden(t)
	second := fig8Golden(t)
	if first != second {
		t.Fatalf("Fig8a not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "fig8a_table.golden", first)
}

// TestFig16QuickGolden pins the scale sweep's placements at quick scale
// (the CLI's default 500 and 2 000 sharePods on 16 nodes): makespan,
// decisions, conflicts and the placement hash per size. The wall_ms column
// is dropped before comparing — it is the one machine-dependent cell.
func TestFig16QuickGolden(t *testing.T) {
	tb, err := Fig16(Fig16Config{Sizes: []int{500, 2000}, Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	const wallCol = 1
	if tb.Headers[wallCol] != "wall_ms" {
		t.Fatalf("column %d is %q, want wall_ms", wallCol, tb.Headers[wallCol])
	}
	drop := func(cells []string) []string {
		return append(append([]string(nil), cells[:wallCol]...), cells[wallCol+1:]...)
	}
	tb.Headers = drop(tb.Headers)
	for i, row := range tb.Rows {
		tb.Rows[i] = drop(row)
	}
	checkGolden(t, "fig16_table.golden", tb.String())
}
