package cpu

import (
	"runtime"
	"testing"
)

// TestFeaturesConsistent checks the probe's implications: AVX-512F
// implies AVX, and no feature is reported off amd64.
func TestFeaturesConsistent(t *testing.T) {
	t.Logf("%s: AVX=%v AVX512F=%v", runtime.GOARCH, AVX, AVX512F)
	if AVX512F && !AVX {
		t.Error("AVX512F reported without AVX")
	}
	if runtime.GOARCH != "amd64" && (AVX || AVX512F) {
		t.Errorf("SIMD features reported on %s", runtime.GOARCH)
	}
}
