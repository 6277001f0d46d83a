package rnuma_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/report"
	"rnuma/internal/stats"
	"rnuma/internal/trace"
)

// Example_quickstart builds a small DSM machine, runs a hand-written
// workload under all three protocols, and watches R-NUMA's reactive
// relocation converge.
//
// The workload is the paper's motivating case in miniature: one node
// repeatedly sweeps remote "reuse" pages (capacity misses), while a
// second page is pure producer-consumer "communication" (coherence
// misses). CC-NUMA refetches the reuse pages forever; S-COMA wastes page
// frames on the communication page; R-NUMA relocates the 8 reuse pages
// once (8 relocations), turns their refetches into page-cache hits, and
// leaves the communication page in CC-NUMA mode: the paper's Section 3
// in action.
func Example_quickstart() {
	for _, protocol := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		sys := config.Base(protocol)
		sys.Nodes, sys.CPUsPerNode = 2, 1 // keep the example tiny

		// Every page lives on node 0; node 1 caches them remotely.
		homes := func(p addr.PageNum) addr.NodeID { return 0 }
		m, err := machine.New(sys, machine.WithHomes(homes))
		if err != nil {
			log.Fatal(err)
		}

		// Node 1's program: 30 dense sweeps over 8 reuse pages (1024
		// blocks — too big for its L1, bigger than R-NUMA's 128-byte
		// block cache), interleaved with reads of a communication page
		// that node 0 keeps rewriting.
		var consumer []trace.Ref
		for sweep := 0; sweep < 30; sweep++ {
			for page := addr.PageNum(0); page < 8; page++ {
				for off := 0; off < 128; off++ {
					consumer = append(consumer, trace.Ref{Page: page, Off: uint16(off), Gap: 10})
				}
			}
			consumer = append(consumer, trace.Ref{Page: 9, Off: 0, Gap: 10})
		}
		var producer []trace.Ref
		for i := 0; i < 30; i++ {
			producer = append(producer, trace.Ref{Page: 9, Off: 0, Write: true, Gap: 35000})
		}

		run, err := m.Run([]trace.Stream{
			trace.FromSlice(producer), // node 0, CPU 0
			trace.FromSlice(consumer), // node 1, CPU 0
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %v ===\n", protocol)
		report.RunSummary(os.Stdout, sys.Name, run)
		fmt.Println()
	}
	// Output:
	// === CC-NUMA ===
	// run: CC-NUMA
	//   execution time:        1367671 cycles
	//   references:            30780
	//   L1 hits:               10 (0.0%)
	//   cache-to-cache:        0
	//   local fills:           1
	//   block cache hits:      29667
	//   page cache hits:       0
	//   remote fetches:        1083 (3.52% of refs)
	//   refetches:             39 (3.6% of remote)
	//   upgrades:              19
	//   page faults:           9
	//   page allocations:      0
	//   page replacements:     0
	//   page relocations:      0
	//   blocks flushed:        0
	//   invalidations sent:    19
	//   three-hop transfers:   20
	//   writebacks to home:    0
	//   distinct remote pages: 9
	//   bus wait cycles:       0
	//   NI wait cycles:        1407
	//   RAD wait cycles:       1952
	//
	// === S-COMA ===
	// run: S-COMA
	//   execution time:        3028543 cycles
	//   references:            30780
	//   L1 hits:               22 (0.1%)
	//   cache-to-cache:        0
	//   local fills:           1
	//   block cache hits:      0
	//   page cache hits:       29718
	//   remote fetches:        1032 (3.35% of refs)
	//   refetches:             0 (0.0% of remote)
	//   upgrades:              7
	//   page faults:           9
	//   page allocations:      9
	//   page replacements:     0
	//   page relocations:      0
	//   blocks flushed:        0
	//   invalidations sent:    7
	//   three-hop transfers:   8
	//   writebacks to home:    0
	//   distinct remote pages: 9
	//   bus wait cycles:       0
	//   NI wait cycles:        0
	//   RAD wait cycles:       70
	//
	// === R-NUMA ===
	// run: R-NUMA
	//   execution time:        3384226 cycles
	//   references:            30780
	//   L1 hits:               26 (0.1%)
	//   cache-to-cache:        0
	//   local fills:           1
	//   block cache hits:      26
	//   page cache hits:       28672
	//   remote fetches:        2052 (6.67% of refs)
	//   refetches:             1024 (49.9% of remote)
	//   upgrades:              3
	//   page faults:           9
	//   page allocations:      0
	//   page replacements:     0
	//   page relocations:      8
	//   blocks flushed:        0
	//   invalidations sent:    3
	//   three-hop transfers:   4
	//   writebacks to home:    0
	//   distinct remote pages: 9
	//   bus wait cycles:       0
	//   NI wait cycles:        1407
	//   RAD wait cycles:       1413
}

// The OLTP-style workload of Example_dbscan.
const (
	poolPages = 48  // hot shared buffer pool (fits the 80-frame page cache)
	tempPages = 150 // per-node scan temporaries streamed once per query
	queries   = 8
)

// dbscanStreams builds every CPU's references for sys's machine shape,
// and the page homes: pool pages round-robin, then each node's temp
// pages at home on it.
func dbscanStreams(sys config.System) ([]trace.Stream, func(addr.PageNum) addr.NodeID) {
	nodes, cpus := sys.Nodes, sys.CPUsPerNode
	homes := func(p addr.PageNum) addr.NodeID {
		if int(p) < poolPages {
			return addr.NodeID(int(p) % nodes)
		}
		return addr.NodeID((int(p) - poolPages) / tempPages % nodes)
	}
	streams := make([]trace.Stream, nodes*cpus)
	for n := 0; n < nodes; n++ {
		tempBase := poolPages + n*tempPages
		for c := 0; c < cpus; c++ {
			rng := rand.New(rand.NewSource(int64(n*cpus + c)))
			var refs []trace.Ref
			for q := 0; q < queries; q++ {
				// Index lookups: random probes into the shared pool,
				// mostly reads with ~10% updates (read-write sharing).
				for i := 0; i < 2200; i++ {
					page := addr.PageNum(rng.Intn(poolPages))
					off := uint16(rng.Intn(128))
					refs = append(refs, trace.Ref{Page: page, Off: off, Write: rng.Float64() < 0.10, Gap: 60})
				}
				// Sequential scan through this node's temp segment: each
				// block touched once — pure streaming.
				for p := 0; p < tempPages; p++ {
					for off := 0; off < 8; off++ {
						refs = append(refs, trace.Ref{Page: addr.PageNum(tempBase + p), Off: uint16(off * 16), Write: true, Gap: 12})
					}
				}
				refs = append(refs, trace.BarrierRef())
			}
			streams[n*cpus+c] = trace.FromSlice(refs)
		}
	}
	return streams, homes
}

// Example_dbscan models the commercial-database case the paper's
// introduction motivates R-NUMA with: Verghese et al. found 90% of user
// data misses in a relational DBMS hit read-write shared pages, which
// page replication and migration cannot help. Every node probes a shared
// buffer pool of read-write pages (index roots and hot tables) and
// streams through scan temporaries of its own.
//
// CC-NUMA's block cache is too small for the pool; read-only replication
// would not help (the pages are written); S-COMA holds the pool but pays
// for the scan temporaries too. R-NUMA relocates the hot pool (336
// relocations) and leaves the temporaries in CC-NUMA mode.
func Example_dbscan() {
	run := func(sys config.System) *stats.Run {
		streams, homes := dbscanStreams(sys)
		m, err := machine.New(sys, machine.WithHomes(homes))
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.Run(streams)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	ideal := run(config.Ideal())
	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		r := run(config.Base(p))
		fmt.Printf("%-8v exec=%9d cycles (%.2fx ideal)  remote=%7d refetch=%7d reloc=%4d repl=%4d\n",
			p, r.ExecCycles, r.Normalized(ideal), r.RemoteFetches, r.Refetches, r.Relocations, r.Replacements)
	}
	// Output:
	// CC-NUMA  exec= 37237588 cycles (1.33x ideal)  remote= 414155 refetch= 197137 reloc=   0 repl=   0
	// S-COMA   exec= 29337817 cycles (1.05x ideal)  remote= 217026 refetch=      0 reloc=   0 repl=   0
	// R-NUMA   exec= 30431726 cycles (1.08x ideal)  remote= 248873 refetch=  31870 reloc= 336 repl=   0
}
