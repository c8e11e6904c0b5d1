package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sgprs/internal/memo"
	"sgprs/internal/runner"
)

// Seeds with committed reference outputs: 1..cellSeeds per cell, and
// 1..passSeeds as one digest per pass. Any other seed is checked for
// determinism only.
const (
	cellSeeds = 2
	passSeeds = 32
)

// goldens is the parsed golden.json.
type goldens struct {
	Format string `json:"format"`
	// Cells maps seed → workload → one digest per cell, in cell order.
	Cells map[string]map[string][]string `json:"cells"`
	// Passes maps seed → workload → the digest of a whole pass.
	Passes map[string]map[string]string `json:"passes"`
}

const goldenFormat = `cell: hex SHA-256 of fmt.Sprintf("%+v", sim.Result); pass: SHA-256 of the cell digests, each followed by a newline`

func loadGoldens(dir string) (*goldens, error) {
	b, err := os.ReadFile(filepath.Join(dir, "golden.json"))
	if err != nil {
		return nil, fmt.Errorf("bench: reading goldens: %w", err)
	}
	var g goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing golden.json: %w", err)
	}
	return &g, nil
}

// checker validates every pass of one run against the best reference
// available for its seed.
type checker struct {
	mode  string
	cells []string // expected per-cell digests; in determinism mode, the first pass's
	pass  string
}

func (g *goldens) checker(workload string, seed uint64) *checker {
	key := strconv.FormatUint(seed, 10)
	if cells, ok := g.Cells[key][workload]; ok {
		return &checker{mode: "golden per cell (seed " + key + ")", cells: cells}
	}
	if d, ok := g.Passes[key][workload]; ok {
		return &checker{mode: "golden per pass (seed " + key + ")", pass: d}
	}
	return &checker{mode: "determinism only: no golden for seed " + key + ", every pass must repeat the first"}
}

// check returns how many of the pass's cells failed: errored, or differ from
// the reference. A wrong pass digest fails every cell of the pass.
func (c *checker) check(p pass) int {
	failed := 0
	for _, r := range p.results {
		if r.Err != nil {
			failed++
		}
	}
	digests := p.digests()
	switch {
	case c.pass != "":
		if passDigest(digests) != c.pass {
			return len(p.results)
		}
	case c.cells == nil:
		c.cells = digests
	default:
		if len(c.cells) != len(digests) {
			return len(p.results)
		}
		for i, d := range digests {
			if p.results[i].Err == nil && d != c.cells[i] {
				failed++
			}
		}
	}
	return failed
}

// updateGoldens recomputes golden.json. Cells run on every CPU: the runner's
// results do not depend on the worker count.
func updateGoldens(dir string) error {
	g := goldens{
		Format: goldenFormat,
		Cells:  map[string]map[string][]string{},
		Passes: map[string]map[string]string{},
	}
	for seed := uint64(1); seed <= passSeeds; seed++ {
		key := strconv.FormatUint(seed, 10)
		g.Passes[key] = map[string]string{}
		for _, w := range workloads {
			jobs, err := w.compile(seed)
			if err != nil {
				return err
			}
			results := runner.Run(context.Background(), jobs, runner.Options{Cache: memo.New()})
			if err := runner.Err(results); err != nil {
				return fmt.Errorf("bench: %s seed %d: %w", w.name, seed, err)
			}
			digests := make([]string, len(results))
			for i, r := range results {
				digests[i] = digest(r.Result)
			}
			if seed <= cellSeeds {
				if g.Cells[key] == nil {
					g.Cells[key] = map[string][]string{}
				}
				g.Cells[key][w.name] = digests
			}
			g.Passes[key][w.name] = passDigest(digests)
		}
		fmt.Printf("goldens: seed %d done\n", seed)
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(b, '\n'), 0o644)
}
