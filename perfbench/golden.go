package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/stats"
)

// goldenScale is the scale internal/harness/testdata/golden was recorded
// at.
const goldenScale = 0.05

// goldenRun mirrors one protocol's entry of a golden fixture file: the
// int64 counters by their stats.Run JSON spelling plus the pinned
// refetch distribution.
type goldenRun struct {
	ExecCycles          int64  `json:"execCycles"`
	Refs                int64  `json:"refs"`
	L1Hits              int64  `json:"l1Hits"`
	LocalFills          int64  `json:"localFills"`
	C2CTransfers        int64  `json:"c2cTransfers"`
	BlockCacheHits      int64  `json:"blockCacheHits"`
	PageCacheHits       int64  `json:"pageCacheHits"`
	RemoteFetches       int64  `json:"remoteFetches"`
	Upgrades            int64  `json:"upgrades"`
	Refetches           int64  `json:"refetches"`
	PageFaults          int64  `json:"pageFaults"`
	Allocations         int64  `json:"allocations"`
	Replacements        int64  `json:"replacements"`
	Relocations         int64  `json:"relocations"`
	Demotions           int64  `json:"demotions"`
	FlushedBlocks       int64  `json:"flushedBlocks"`
	TLBShootdowns       int64  `json:"tlbShootdowns"`
	RemotePages         int64  `json:"remotePages"`
	InvalsSent          int64  `json:"invalsSent"`
	ThreeHopXfers       int64  `json:"threeHopXfers"`
	WritebacksHome      int64  `json:"writebacksHome"`
	BusWaitCycles       int64  `json:"busWaitCycles"`
	NIWaitCycles        int64  `json:"niWaitCycles"`
	RADWaitCycles       int64  `json:"radWaitCycles"`
	RWRefetches         int64  `json:"rwRefetches"`
	RefetchPages        int    `json:"refetchPages"`
	RefetchDigest       string `json:"refetchDigest"`
	PerNodeReplacements []struct {
		Node  int   `json:"node"`
		Count int64 `json:"count"`
	} `json:"perNodeReplacements"`
}

// asRun lifts the fixture's counters into a stats.Run so stats.Diff can
// compare them field by field.
func (g goldenRun) asRun() *stats.Run {
	r := stats.NewRun()
	r.ExecCycles, r.Refs, r.L1Hits = g.ExecCycles, g.Refs, g.L1Hits
	r.LocalFills, r.C2CTransfers = g.LocalFills, g.C2CTransfers
	r.BlockCacheHits, r.PageCacheHits = g.BlockCacheHits, g.PageCacheHits
	r.RemoteFetches, r.Upgrades, r.Refetches = g.RemoteFetches, g.Upgrades, g.Refetches
	r.PageFaults, r.Allocations, r.Replacements = g.PageFaults, g.Allocations, g.Replacements
	r.Relocations, r.Demotions, r.FlushedBlocks = g.Relocations, g.Demotions, g.FlushedBlocks
	r.TLBShootdowns, r.RemotePages, r.InvalsSent = g.TLBShootdowns, g.RemotePages, g.InvalsSent
	r.ThreeHopXfers, r.WritebacksHome = g.ThreeHopXfers, g.WritebacksHome
	r.BusWaitCycles, r.NIWaitCycles, r.RADWaitCycles = g.BusWaitCycles, g.NIWaitCycles, g.RADWaitCycles
	r.RWRefetches = g.RWRefetches
	for _, nc := range g.PerNodeReplacements {
		r.PerNodeReplacements[addr.NodeID(nc.Node)] = nc.Count
	}
	return r
}

// fixtureDigest is the golden files' refetch digest: (node, page, count)
// triples sorted page-major, which differs from stats.RefetchDigest's
// node-major order.
func fixtureDigest(r *stats.Run) string {
	keys := make([]stats.PageKey, 0, len(r.RefetchByPage))
	for k := range r.RefetchByPage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Page != keys[j].Page {
			return keys[i].Page < keys[j].Page
		}
		return keys[i].Node < keys[j].Node
	})
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d/%d:%d\n", k.Node, k.Page, r.RefetchByPage[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// checkGolden replays every catalog application under the three base
// protocols at the golden scale and compares each result with stats.Diff
// against the committed fixtures. It returns the number of runs checked.
func checkGolden(root string, workers int) (int, error) {
	systems := map[string]config.System{
		"ccnuma": config.Base(config.CCNUMA),
		"scoma":  config.Base(config.SCOMA),
		"rnuma":  config.Base(config.RNUMA),
	}
	h := harness.New(goldenScale)
	h.Workers = workers
	plan := harness.NewPlan()
	for _, sys := range systems {
		plan.AddRuns(harness.AllApps(), sys)
	}
	h.Prefetch(plan)
	checked := 0
	for _, app := range harness.AllApps() {
		data, err := os.ReadFile(filepath.Join(root, "internal", "harness", "testdata", "golden", app+".json"))
		if err != nil {
			return checked, fmt.Errorf("golden: %w", err)
		}
		var want map[string]goldenRun
		if err := json.Unmarshal(data, &want); err != nil {
			return checked, fmt.Errorf("golden %s: %w", app, err)
		}
		for proto, sys := range systems {
			w, ok := want[proto]
			if !ok {
				return checked, fmt.Errorf("golden %s: no %s entry", app, proto)
			}
			got, err := h.Run(app, sys)
			if err != nil {
				return checked, fmt.Errorf("golden %s on %s: %w", app, proto, err)
			}
			plain := got.Clone()
			plain.RefetchByPage = nil
			d := stats.Diff(w.asRun(), plain)
			for _, c := range d.Counters {
				if c.Delta != 0 {
					return checked, fmt.Errorf("golden %s on %s: %s is %d, fixture %d", app, proto, c.Name, c.B, c.A)
				}
			}
			if len(got.RefetchByPage) != w.RefetchPages || fixtureDigest(got) != w.RefetchDigest {
				return checked, fmt.Errorf("golden %s on %s: refetch distribution differs from the fixture", app, proto)
			}
			wr := w.asRun().PerNodeReplacements
			for n, c := range got.PerNodeReplacements {
				if wr[n] != c {
					return checked, fmt.Errorf("golden %s on %s: node %d replaced %d pages, fixture %d", app, proto, n, c, wr[n])
				}
			}
			if len(wr) != len(got.PerNodeReplacements) {
				return checked, fmt.Errorf("golden %s on %s: per-node replacements differ from the fixture", app, proto)
			}
			checked++
		}
	}
	return checked, nil
}
