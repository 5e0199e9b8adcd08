package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Probes (src P) call a layer's exported functions in isolation, on inputs
// taken from the workload that hosts them: its upgrade, its cluster count,
// its finished journal, its registered fleet. Each reports the median of
// probeRounds rounds; a round times a loop and divides.
const probeRounds = 5

// sink keeps probe results alive so the calls cannot be optimised away.
var sink uint64

func perOp(total time.Duration, n int) time.Duration { return total / time.Duration(n) }

// rounds runs fn probeRounds times and returns the results.
func rounds(fn func() (float64, error)) ([]float64, error) {
	out := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// probes runs every probe this workload hosts and adds one sample per
// round to ls.
func (r *rolloutRun) probes(ctx context.Context, ls layerSamples, last *repResult) error {
	type probe struct {
		name string
		fn   func() (float64, error)
	}
	var ps []probe

	// staging: the plan for this workload's cluster count.
	buildPlan := planBuilder(r.p.clusters)
	ps = append(ps, probe{"staging.build_plan_us", func() (float64, error) {
		const n = 20
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(buildPlan())
		}
		return us(perOp(time.Since(t0), n)), nil
	}})

	// rollout, read side: the journal the last plain repetition wrote.
	var loaded *loadedJournal
	ps = append(ps, probe{"rollout.load_us_per_record", func() (float64, error) {
		t0 := time.Now()
		lj, err := loadJournal(last.journal)
		if err != nil {
			return 0, err
		}
		loaded = lj
		return us(time.Since(t0)) / float64(lj.records()), nil
	}}, probe{"rollout.resume_us_per_record", func() (float64, error) {
		t0 := time.Now()
		if _, err := loaded.resume(r.clusters); err != nil {
			return 0, err
		}
		return us(time.Since(t0)) / float64(loaded.records()), nil
	}})

	// orchestrator: an operator polling the finished rollout.
	ps = append(ps, probe{"orchestrator.status_us", func() (float64, error) {
		const n = 20
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(last.handle.statusMembers())
		}
		return us(perOp(time.Since(t0), n)), nil
	}})

	// distrib: this workload's upgrade through store and cache.
	store := newChunkStore()
	var man manifest
	var chunks []chunk
	ps = append(ps, probe{"distrib.manifest_cold_ms", func() (float64, error) {
		store = newChunkStore()
		t0 := time.Now()
		man = store.manifest(last.up)
		d := time.Since(t0)
		var err error
		chunks, err = store.chunks(man)
		return ms(d), err
	}}, probe{"distrib.manifest_cached_us", func() (float64, error) {
		const n = 50
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(store.manifest(last.up).chunkCount())
		}
		return us(perOp(time.Since(t0), n)), nil
	}})
	filled := func() (chunkCache, error) {
		c := newChunkCache()
		for _, ch := range chunks {
			if err := c.add(ch.Addr, ch.Data); err != nil {
				return c, err
			}
		}
		return c, nil
	}
	// The cache-miss workload prices Missing with nothing present, the
	// others with everything present.
	ps = append(ps, probe{"distrib.missing_us", func() (float64, error) {
		c := newChunkCache()
		if !r.p.peers {
			var err error
			if c, err = filled(); err != nil {
				return 0, err
			}
		}
		const n = 50
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(c.missing(man))
		}
		return us(perOp(time.Since(t0), n)), nil
	}})

	if !r.p.sim {
		installed := payload(r.seed, installedBytes, "installed")
		ps = append(ps, probe{"distrib.seed_mb_per_s", func() (float64, error) {
			c := newChunkCache()
			t0 := time.Now()
			c.seedFile(installed)
			return mbPerS(len(installed), time.Since(t0)), nil
		}}, probe{"distrib.add_mb_per_s", func() (float64, error) {
			c := newChunkCache()
			total := 0
			t0 := time.Now()
			for _, ch := range chunks {
				if err := c.add(ch.Addr, ch.Data); err != nil {
					return 0, err
				}
				total += len(ch.Data)
			}
			return mbPerS(total, time.Since(t0)), nil
		}}, probe{"distrib.assemble_ms", func() (float64, error) {
			c, err := filled()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			err = c.assemble(man)
			return ms(time.Since(t0)), err
		}})
		big := payload(r.seed, 4<<20, "fingerprint")
		ck := newChunker()
		ps = append(ps, probe{"fingerprint.split_mb_per_s", func() (float64, error) {
			t0 := time.Now()
			sink += uint64(ck.splitAddressed(big))
			return mbPerS(len(big), time.Since(t0)), nil
		}}, probe{"fingerprint.hash_mb_per_s", func() (float64, error) {
			t0 := time.Now()
			for off := 0; off+4096 <= len(big); off += 4096 {
				sink += hashBytes(big[off : off+4096])
			}
			return mbPerS(len(big), time.Since(t0)), nil
		}})
	}

	if r.p.sim {
		// deploy: the worker pool and booking over stub nodes, this
		// workload's cluster shape, no journal, no transport.
		ps = append(ps, probe{"deploy.null_member_us", func() (float64, error) {
			t0 := time.Now()
			got, err := deployNull(ctx, last.up, r.clusters)
			if err == nil && got != r.p.agents {
				err = fmt.Errorf("stub deploy integrated %d of %d", got, r.p.agents)
			}
			return us(perOp(time.Since(t0), r.p.agents)), err
		}})
		// rollout, write side: the wide rollout's pattern (member records
		// group-committed, a durable record every 1000) and the deep one's
		// (boundary records, each paying this disk's fsync).
		ps = append(ps, probe{"rollout.append_buffered_us", func() (float64, error) {
			return r.journalProbe(20_000, func(w *journalWriter, i int) error {
				if i%1000 == 999 {
					return w.appendDurable(i)
				}
				return w.appendBuffered(i)
			})
		}}, probe{"rollout.append_sync_us", func() (float64, error) {
			return r.journalProbe(400, func(w *journalWriter, i int) error { return w.appendDurable(i) })
		}})
	}

	if r.p.name == wlRolloutWide {
		names := r.sim.names()
		ps = append(ps, probe{"transport.ping_rtt_us", func() (float64, error) {
			const n = 4000
			lat := make([]float64, n)
			for i := range lat {
				t0 := time.Now()
				if err := r.v.ping(ctx, names[i%len(names)]); err != nil {
					return 0, err
				}
				lat[i] = us(time.Since(t0))
			}
			return median(lat), nil
		}}, probe{"transport.ping_par_per_s", func() (float64, error) {
			const each = 2000
			workers := runtime.GOMAXPROCS(0)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					mine := names[w*len(names)/workers : (w+1)*len(names)/workers]
					for i := 0; i < each && errs[w] == nil; i++ {
						errs[w] = r.v.ping(ctx, mine[i%len(mine)])
					}
				}(w)
			}
			wg.Wait()
			d := time.Since(t0)
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
			return float64(workers*each) / d.Seconds(), nil
		}})
		regNames := make([]string, 100_000)
		for i := range regNames {
			regNames[i] = fmt.Sprintf("agent-%06d", i)
		}
		reg := newNameRegistry()
		for i, name := range regNames {
			reg.put(name, i)
		}
		ps = append(ps, probe{"transport.registry_mixed_ns", func() (float64, error) {
			const n = 400_000
			idx := 0
			t0 := time.Now()
			for i := 0; i < n; i++ {
				name := regNames[idx%len(regNames)]
				idx += 7919
				if i%16 == 0 {
					reg.put(name, i)
				} else if reg.get(name) {
					sink++
				}
			}
			return float64(time.Since(t0).Nanoseconds()) / n, nil
		}})
		h := newHistogram()
		ps = append(ps, probe{"telemetry.observe_ns", func() (float64, error) {
			const n = 1_000_000
			t0 := time.Now()
			for i := 0; i < n; i++ {
				h.observe(int64(i))
			}
			return float64(time.Since(t0).Nanoseconds()) / n, nil
		}}, probe{"telemetry.observe_par_ns", func() (float64, error) {
			const n = 1_000_000
			workers := runtime.GOMAXPROCS(0)
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						h.observe(int64(i))
					}
				}()
			}
			wg.Wait()
			return float64(time.Since(t0).Nanoseconds()) / n, nil
		}})
	}

	for _, p := range ps {
		if err := ctx.Err(); err != nil {
			return err
		}
		vs, err := rounds(p.fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		ls[p.name] = vs
	}
	return nil
}

// journalProbe appends n records to a fresh journal in the workload's
// journal directory and returns microseconds per record.
func (r *rolloutRun) journalProbe(n int, appendRec func(*journalWriter, int) error) (float64, error) {
	w, err := createJournal(filepath.Join(r.dir, "probe.journal"))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := appendRec(w, i); err != nil {
			w.close()
			return 0, err
		}
	}
	d := time.Since(t0)
	return us(perOp(d, n)), w.close()
}
