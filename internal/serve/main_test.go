package serve

import (
	"testing"

	"awra/internal/leakcheck"
)

// TestMain fails the package when its tests leave temporary files or
// goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
