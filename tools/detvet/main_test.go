package main

import (
	"os"
	"path/filepath"
	"testing"
)

// vet writes src as a throwaway .go file and returns checkFile's
// violation count.
func vet(t *testing.T, src string) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return checkFile(path)
}

func TestWallClockAndStdoutFlagged(t *testing.T) {
	src := `package p

import (
	"fmt"
	"time"
)

func bad() {
	fmt.Println(time.Now()) // stdout + wall clock: two violations
}
`
	if got := vet(t, src); got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}
}

func TestDetAllowExemptsLine(t *testing.T) {
	src := `package p

import "time"

var now = time.Now //det:allow injectable default, off-simulation only
`
	if got := vet(t, src); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
}
