package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/directory"
	"rnuma/internal/harness"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// This file measures single layers by timing calls into each package's
// public functions, on inputs derived from one real capture.

const (
	layerRepeats = 3
	minSample    = 100 * time.Millisecond
)

// layerTime is a layer figure: the median of layerRepeats samples, each
// the mean duration of step over back-to-back calls adding up to at least
// minSample of timed work, so that a call of a few milliseconds is not
// timed alone. step returns the part of its work to count.
func layerTime(step func() (time.Duration, error)) (time.Duration, error) {
	return medianOf(layerRepeats, func() (time.Duration, error) { return sample(step) })
}

// sample is one layerTime sample.
func sample(step func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	n := 0
	for total < minSample {
		d, err := step()
		if err != nil {
			return 0, err
		}
		total += d
		n++
	}
	return total / time.Duration(n), nil
}

// measureLayers records the capture of app at cfg and measures the
// trace codec, the machine per protocol, the cache -> block cache ->
// directory -> page cache chain, the fork engine, the telemetry probe
// and the result stores on it. With simFromReplay the capture's R-NUMA
// base run also supplies the sim.* counters.
func measureLayers(m map[string]float64, app workloads.App, cfg workloads.Config, scratch string, simFromReplay bool) error {
	// Trace codec.
	var data []byte
	var refs int64
	enc, err := layerTime(func() (time.Duration, error) {
		w := app.Build(cfg)
		var buf bytes.Buffer
		t := time.Now()
		n, _, err := tracefile.WriteWorkload(&buf, w, cfg)
		d := time.Since(t)
		data, refs = buf.Bytes(), n
		return d, err
	})
	if err != nil {
		return err
	}
	m["tracefile.encode_s"] = enc.Seconds()
	m["tracefile.bytes_per_ref"] = float64(len(data)) / float64(refs)
	dec, err := layerTime(func() (time.Duration, error) {
		t := time.Now()
		d, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		_, err = d.Drain()
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	m["tracefile.decode_refs_per_s"] = float64(refs) / dec.Seconds()
	tf, err := layerTime(func() (time.Duration, error) {
		var buf bytes.Buffer
		t := time.Now()
		_, err := tracefile.RetargetGeometry(&buf, bytes.NewReader(data), tracefile.GeometrySpec{BlockBytes: 16})
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	m["tracefile.transform_s"] = tf.Seconds()
	hs, err := layerTime(func() (time.Duration, error) {
		t := time.Now()
		_, _, err := tracefile.CanonicalHash(bytes.NewReader(data))
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	m["tracefile.hash_s"] = hs.Seconds()

	// The machine over pre-decoded streams: decode is excluded.
	hdr, perCPU, err := decodeAll(data)
	if err != nil {
		return err
	}
	rn, err := measureMachine(m, hdr, perCPU)
	if err != nil {
		return err
	}
	if simFromReplay {
		addSimCounters(m, []*stats.Run{rn})
	}
	measureChain(m, hdr, perCPU)

	// Fork engine and telemetry probe, both against one plain replay. The
	// three are sampled in turn, so a drift in host speed during the
	// measurement does not land on one side of a ratio.
	sys := config.Base(config.RNUMA)
	variants := [][]harness.RunOption{
		nil,
		{harness.WithThresholds(8, 16, 64, 256, 1024)},
		{harness.WithTelemetry(telemetry.Config{Window: telemetry.DefaultWindow})},
	}
	samples := make([][]float64, len(variants))
	for i := 0; i < layerRepeats; i++ {
		for v, opts := range variants {
			runtime.GC() // no variant pays for another's garbage
			d, err := sample(func() (time.Duration, error) {
				t := time.Now()
				_, err := harness.Replay(bytes.NewReader(data), sys, opts...)
				return time.Since(t), err
			})
			if err != nil {
				return err
			}
			samples[v] = append(samples[v], float64(d))
		}
	}
	one := median(samples[0])
	m["harness.fork_sweep_ratio"] = median(samples[1]) / one
	m["telemetry.overhead_ratio"] = median(samples[2]) / one

	return measureStores(m, rn, scratch)
}

// decodeAll decodes a capture into per-CPU reference slices.
func decodeAll(data []byte) (tracefile.Header, [][]trace.Ref, error) {
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return tracefile.Header{}, nil, err
	}
	out := make([][]trace.Ref, len(d.Streams()))
	for i, s := range d.Streams() {
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			out[i] = append(out[i], r)
		}
	}
	return d.Header(), out, d.Err()
}

// measureMachine times machine.Run per protocol over trace.FromSlice
// streams and counts allocations per reference on the R-NUMA run, which
// it returns.
func measureMachine(m map[string]float64, hdr tracefile.Header, perCPU [][]trace.Ref) (*stats.Run, error) {
	systems := []struct {
		name string
		sys  config.System
	}{
		{"ccnuma", config.Base(config.CCNUMA)},
		{"scoma", config.Base(config.SCOMA)},
		{"rnuma", config.Base(config.RNUMA)},
		{"ideal", config.Ideal()},
	}
	var rn *stats.Run
	for _, s := range systems {
		var run *stats.Run
		d, err := layerTime(func() (time.Duration, error) {
			mc, _, err := harness.NewTraceMachine(hdr, s.sys)
			if err != nil {
				return 0, err
			}
			streams := make([]trace.Stream, len(perCPU))
			for i, refs := range perCPU {
				streams[i] = trace.FromSlice(refs)
			}
			t := time.Now()
			run, err = mc.Run(streams)
			return time.Since(t), err
		})
		if err != nil {
			return nil, fmt.Errorf("machine %s: %w", s.name, err)
		}
		m["machine.refs_per_s."+s.name] = float64(run.Refs) / d.Seconds()
		if s.name == "rnuma" {
			rn = run
		}
	}
	mc, _, err := harness.NewTraceMachine(hdr, config.Base(config.RNUMA))
	if err != nil {
		return nil, err
	}
	streams := make([]trace.Stream, len(perCPU))
	for i, refs := range perCPU {
		streams[i] = trace.FromSlice(refs)
	}
	allocs := mallocs()
	if _, err := mc.Run(streams); err != nil {
		return nil, err
	}
	m["machine.allocs_per_ref"] = float64(mallocs()-allocs) / float64(rn.Refs)
	return rn, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// access is one reference of the interleaved capture.
type access struct {
	cpu, node int32
	page      addr.PageNum
	blk       addr.BlockNum
	write     bool
}

// dirOp is one directory transaction: a fetch, or a dirty block-cache
// victim's voluntary writeback.
type dirOp struct {
	blk       addr.BlockNum
	node      addr.NodeID
	write, wb bool
}

// pageOp is one refetch reaching the page-cache layer.
type pageOp struct {
	node addr.NodeID
	page addr.PageNum
}

// measureChain drives cache -> blockcache -> directory -> pagecache with
// miss streams derived from the capture: its references, interleaved one
// per CPU in turn, filter through per-CPU base-size L1s; the L1 misses
// to remote pages filter through per-node base-size CC-NUMA block
// caches; block-cache misses (and dirty victims) become directory
// transactions; and the directory's refetches reach per-node base-size
// page caches, which allocate (evicting the least recently missed page)
// on a page's first refetch. Each layer is then timed alone over its own
// stream, on fresh state.
func measureChain(m map[string]float64, hdr tracefile.Header, perCPU [][]trace.Ref) {
	g := hdr.Geometry
	cpusPer := hdr.CPUs / hdr.Nodes
	homes := hdr.HomeFunc()
	base := config.Base(config.RNUMA)
	var acc []access
	for i, more := 0, true; more; i++ {
		more = false
		for cpu, refs := range perCPU {
			if i >= len(refs) {
				continue
			}
			more = true
			if r := refs[i]; !r.Barrier {
				acc = append(acc, access{cpu: int32(cpu), node: int32(cpu / cpusPer), page: r.Page, blk: g.BlockOf(r.Page, int(r.Off)), write: r.Write})
			}
		}
	}

	// Derivation pass: the miss stream each layer hands the next.
	var remote []access
	hits := l1Pass(acc, hdr.CPUs, base.L1Bytes, g.BlockBytes(), func(a access) {
		if homes(a.page) != addr.NodeID(a.node) {
			remote = append(remote, a)
		}
	})
	m["cache.hit_ratio"] = stats.Ratio(hits, int64(len(acc)))
	bcFrames := config.Base(config.CCNUMA).BlockCacheBytes / g.BlockBytes()
	var ops []dirOp
	bcHits := bcPass(remote, hdr.Nodes, bcFrames, func(op dirOp) { ops = append(ops, op) })
	m["blockcache.hit_ratio"] = stats.Ratio(bcHits, int64(len(remote)))
	var pops []pageOp
	fetches := dirPass(ops, hdr.Nodes, g, func(op pageOp) { pops = append(pops, op) })
	frames := base.PageCacheBytes / g.PageBytes()
	m["pagecache.replacements"] = float64(pcPass(pops, hdr.Nodes, frames, g.BlocksPerPage()))

	// Timed passes.
	nsPer := func(n int, f func()) float64 {
		d, _ := layerTime(func() (time.Duration, error) {
			t := time.Now()
			f()
			return time.Since(t), nil
		})
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	m["cache.ns_per_access"] = nsPer(len(acc), func() { l1Pass(acc, hdr.CPUs, base.L1Bytes, g.BlockBytes(), nil) })
	m["blockcache.ns_per_access"] = nsPer(len(remote), func() { bcPass(remote, hdr.Nodes, bcFrames, nil) })
	m["directory.ns_per_fetch"] = nsPer(int(fetches), func() { dirPass(ops, hdr.Nodes, g, nil) })
	m["pagecache.ns_per_op"] = nsPer(len(pops), func() { pcPass(pops, hdr.Nodes, frames, g.BlocksPerPage()) })
	if fetches > 0 {
		before := mallocs()
		dirPass(ops, hdr.Nodes, g, nil)
		m["directory.allocs_per_fetch"] = float64(mallocs()-before) / float64(fetches)
	}
}

// l1Pass runs the accesses through per-CPU L1s and returns the hits;
// miss, if non-nil, receives every miss.
func l1Pass(acc []access, cpus, l1Bytes, blockBytes int, miss func(access)) int64 {
	l1s := make([]*cache.L1, cpus)
	for i := range l1s {
		l1s[i] = cache.New(l1Bytes, blockBytes)
	}
	var hits int64
	for _, a := range acc {
		c := l1s[a.cpu]
		idx := c.Index(uint32(a.blk))
		if st, _ := c.Lookup(idx, a.blk); st.Valid() {
			hits++
			if a.write && st != cache.Modified {
				c.SetState(idx, a.blk, cache.Modified)
			}
			continue
		}
		st := cache.Shared
		if a.write {
			st = cache.Modified
		}
		c.Fill(idx, a.blk, st, 0)
		if miss != nil {
			miss(a)
		}
	}
	return hits
}

// bcPass runs remote L1 misses through per-node block caches and returns
// the hits; op, if non-nil, receives the directory transactions.
func bcPass(remote []access, nodes, frames int, op func(dirOp)) int64 {
	bcs := make([]*blockcache.Cache, nodes)
	for i := range bcs {
		bcs[i] = blockcache.New(frames)
	}
	var hits int64
	for _, a := range remote {
		bc := bcs[a.node]
		if e, ok := bc.Lookup(a.blk); ok {
			hits++
			if a.write && e.State != blockcache.ReadWrite {
				bc.Update(a.blk, blockcache.ReadWrite, true, e.Version)
			}
			continue
		}
		st := blockcache.ReadOnly
		if a.write {
			st = blockcache.ReadWrite
		}
		victim, evicted := bc.Fill(a.blk, st, a.write, 0)
		if op != nil {
			if evicted && victim.Dirty {
				op(dirOp{blk: victim.Block, node: addr.NodeID(a.node), wb: true})
			}
			op(dirOp{blk: a.blk, node: addr.NodeID(a.node), write: a.write})
		}
	}
	return hits
}

// dirPass applies the transactions to a fresh directory and returns the
// fetches; refetch, if non-nil, receives every refetch.
func dirPass(ops []dirOp, nodes int, g addr.Geometry, refetch func(pageOp)) int64 {
	d := directory.New(nodes)
	var fetches int64
	for _, op := range ops {
		if op.wb {
			d.WritebackVoluntary(op.blk, op.node, 0)
			continue
		}
		fetches++
		if res := d.Fetch(op.blk, op.node, op.write); res.Refetch && refetch != nil {
			refetch(pageOp{node: op.node, page: g.PageOf(op.blk)})
		}
	}
	return fetches
}

// pcPass applies refetches to per-node page caches and returns the
// replacements.
func pcPass(ops []pageOp, nodes, frames, bpp int) int64 {
	pcs := make([]*pagecache.Cache, nodes)
	for i := range pcs {
		pcs[i] = pagecache.New(frames, bpp)
	}
	for i, op := range ops {
		pc := pcs[op.node]
		if idx, ok := pc.FrameOf(op.page); ok {
			pc.TouchMiss(idx, int64(i))
			continue
		}
		if pc.FreeFrames() == 0 {
			if v, ok := pc.PickVictim(); ok {
				pc.Evict(v)
			}
		}
		pc.Allocate(op.page, int64(i))
	}
	var repl int64
	for _, pc := range pcs {
		repl += pc.Replacements()
	}
	return repl
}

// measureStores times the result stores: MemoryStore claim, commit and
// hit per operation, and DiskStore commits and cold loads of the
// capture's R-NUMA run.
func measureStores(m map[string]float64, run *stats.Run, scratch string) error {
	const memKeys = 20000
	keys := make([]harness.JobKey, memKeys)
	for i := range keys {
		keys[i] = harness.JobKey{App: fmt.Sprintf("app%d", i), Sys: "rnuma", Scale: 1}
	}
	mem, err := layerTime(func() (time.Duration, error) {
		s := harness.NewMemoryStore()
		t := time.Now()
		for _, k := range keys {
			s.StartOrWait(k)
			s.Commit(k, run, nil)
			s.StartOrWait(k)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["harness.store_ns_per_op"] = float64(mem.Nanoseconds()) / (3 * memKeys)

	const diskKeys = 20
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := harness.NewDiskStore(filepath.Join(dir, "s"))
	if err != nil {
		return err
	}
	t := time.Now()
	for _, k := range keys[:diskKeys] {
		if _, owner, _ := ds.StartOrWait(k); owner {
			ds.Commit(k, run, nil)
		}
	}
	m["harness.disk_commit_ms"] = float64(time.Since(t)) / float64(time.Millisecond) / diskKeys
	fresh, err := harness.NewDiskStore(filepath.Join(dir, "s"))
	if err != nil {
		return err
	}
	t = time.Now()
	for _, k := range keys[:diskKeys] {
		if _, owner, _ := fresh.StartOrWait(k); owner {
			return fmt.Errorf("disk store: %s missed after commit", k)
		}
	}
	m["harness.disk_load_ms"] = float64(time.Since(t)) / float64(time.Millisecond) / diskKeys
	return nil
}
