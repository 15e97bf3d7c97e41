package c3_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets keeps benchmark/ under `go test ./...`: it is a
// module of its own (replace c3 => ../), so the root build never compiles
// it, and renaming or re-typing an exported internal/ function it calls
// would otherwise break the repository's benchmark silently. go vet
// type-checks every file, tests included, and resolves offline.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
