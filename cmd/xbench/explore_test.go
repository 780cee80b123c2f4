package main

import (
	"bytes"
	"context"
	"testing"

	"xring/internal/service"
	"xring/internal/service/client"
)

// TestExploreBenchGrid pins the explore bench's study: 12 cells over 6
// distinct keys, a 2-point frontier, the aliased policy served from
// cache or dedup on at least half the grid, every frontier key
// fetchable, and byte-identical frontier CSVs across two cold runs.
func TestExploreBenchGrid(t *testing.T) {
	g, err := exploreBenchGrid()
	if err != nil {
		t.Fatal(err)
	}
	var csvs [2][]byte
	for run := range csvs {
		_, err := runGridOnce(g, func(c *client.Client, st *service.ExploreStatus) error {
			keys := map[string]bool{}
			for _, cs := range st.CellStatuses {
				keys[cs.Key] = true
			}
			if st.Cells != 12 || len(keys) != 6 || len(st.Frontier) != 2 {
				t.Errorf("run %d: %d cells, %d distinct keys, frontier %d; want 12, 6, 2",
					run, st.Cells, len(keys), len(st.Frontier))
			}
			if hits := st.CacheHits + st.DedupHits; hits < 6 {
				t.Errorf("run %d: %d cache + %d dedup hits, want at least 6", run, st.CacheHits, st.DedupHits)
			}
			ctx := context.Background()
			for _, p := range st.Frontier {
				design, err := c.Design(ctx, p.Key)
				if err != nil || len(design) == 0 {
					t.Errorf("run %d: frontier point %s not fetchable by key: %v", run, p.CellID, err)
				}
			}
			csv, err := c.ExploreFrontierCSV(ctx, st.ID)
			csvs[run] = csv
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csvs[0], csvs[1]) {
		t.Errorf("frontier CSV differs between identical cold runs:\n%s\nvs\n%s", csvs[0], csvs[1])
	}
}
