package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// expectDir holds the outputs pinned for every workload, relative to the
// root of the checkout the benchmark runs from. Regenerate them with
// --pin (only when a change is meant to alter outputs).
const expectDir = "perfbench/expected"

func expectPath(workload string) string { return filepath.Join(expectDir, workload+".json") }

// loadExpect reads the pinned outputs of a workload into v.
func loadExpect(workload string, v any) error {
	b, err := os.ReadFile(expectPath(workload))
	if err != nil {
		return fmt.Errorf("pinned outputs: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("pinned outputs %s: %w", expectPath(workload), err)
	}
	return nil
}

// saveExpect writes the pinned outputs of a workload.
func saveExpect(workload string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectPath(workload), append(b, '\n'), 0o644)
}

// streamHash fingerprints a token stream (FNV-64a over little-endian
// uint32 tokens).
func streamHash(tokens []int) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, t := range tokens {
		binary.LittleEndian.PutUint32(buf[:], uint32(t))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
