package sat

import (
	"os"
	"testing"

	"alive/internal/leakcheck"
)

// TestMain fails the package if any solver goroutine leaks past the
// tests (stop-flag flippers in the resume tests included).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
