package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// expectation pins, for seed 1 at full size, what must not change
// unnoticed on one workload: the digest of the serial references, and
// the engine's own counts on the replayed pairs. The serial reference
// catches an op that disagrees with it; the pins catch a change that
// moves the reference and every path together.
type expectation struct {
	RefSHA256 string           `json:"ref_sha256"`
	Exact     map[string]int64 `json:"exact"`
}

const pinnedSeed = 1

func loadExpected(path string) (map[string]*expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]*expectation
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func (p *expectation) checkExact(got map[string]int64) []string {
	var bad []string
	for _, k := range sortedKeys(p.Exact) {
		if got[k] != p.Exact[k] {
			bad = append(bad, fmt.Sprintf("%s = %d, expected.json pins %d", k, got[k], p.Exact[k]))
		}
	}
	return bad
}

// writeExpected rewrites expected.json from a full-size seed-1 run;
// for use after a deliberate change of the inputs or of the engine's
// results, never to make a failing run pass.
func writeExpected(path string, reports []*workloadReport) error {
	m := make(map[string]*expectation)
	for _, r := range reports {
		m[r.Workload] = &expectation{RefSHA256: r.RefSHA256, Exact: r.Exact}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
