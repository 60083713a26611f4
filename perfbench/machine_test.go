package main

import (
	"runtime"
	"testing"
	"time"
)

func TestRSSSamplerSeesAPeak(t *testing.T) {
	base := residentBytes()
	if base == 0 {
		t.Skip("no /proc/self/statm")
	}
	m := startRSSSampler()
	const size = 64 << 20
	buf := make([]byte, size)
	for i := 0; i < size; i += 4096 {
		buf[i] = 1 // touch every page so it is resident
	}
	time.Sleep(4 * rssSampleEvery)
	runtime.KeepAlive(buf)
	if got := m.peak(); got < base+size/2 {
		t.Errorf("peak resident set %d B after touching %d B, want at least %d B", got, size, base+size/2)
	}
}
