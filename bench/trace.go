package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced repetition, recorded from the
// benchmark's side of a seam: around a deploy.Node call, or between event
// receipts. Times are nanoseconds since the rollout's start. Spans inside
// the program are a later issue's.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Rollout string `json:"rollout"`
}

// recorder holds the spans of one traced repetition in memory until the
// run ends.
type recorder struct {
	spans []span
	// test and integrate are the decorator's call durations.
	test, integrate []time.Duration
}

// pendingCall is one deploy.Node call as the decorator saw it.
type pendingCall struct {
	op, member string
	start      time.Time
	dur        time.Duration
}

// callLog collects the decorator's calls; observe is the callObserver and
// is called from the controller's worker goroutines.
type callLog struct {
	mu    sync.Mutex
	calls []pendingCall
}

func (l *callLog) observe(op, member string, start time.Time, dur time.Duration) {
	l.mu.Lock()
	l.calls = append(l.calls, pendingCall{op, member, start, dur})
	l.mu.Unlock()
}

func stageName(i int) string { return fmt.Sprintf("stage %d", i) }

// stageTimes are the receipt times of a rollout's stage_start and gate
// events, by stage index.
type stageTimes struct {
	start, gate map[int]time.Time
	stages      int
}

func stagesOf(events []stamped) stageTimes {
	st := stageTimes{start: map[int]time.Time{}, gate: map[int]time.Time{}}
	for _, ev := range events {
		switch ev.Type {
		case evStageStart:
			st.start[ev.Stage] = ev.at
			if ev.Stage+1 > st.stages {
				st.stages = ev.Stage + 1
			}
		case evGate:
			st.gate[ev.Stage] = ev.at
		}
	}
	return st
}

// means returns the mean stage duration (stage_start -> gate), the mean
// gap between one stage's gate and the next stage's start, and the time
// from `from` to the first stage_start.
func (st stageTimes) means(from time.Time) (stage, gap, first time.Duration) {
	var sumStage, sumGap time.Duration
	var nStage, nGap int
	for i := 0; i < st.stages; i++ {
		s, okS := st.start[i]
		g, okG := st.gate[i]
		if okS && okG {
			sumStage += g.Sub(s)
			nStage++
		}
		if next, ok := st.start[i+1]; ok && okG {
			sumGap += next.Sub(g)
			nGap++
		}
	}
	if nStage > 0 {
		stage = sumStage / time.Duration(nStage)
	}
	if nGap > 0 {
		gap = sumGap / time.Duration(nGap)
	}
	if s, ok := st.start[0]; ok {
		first = s.Sub(from)
	}
	return stage, gap, first
}

// buildSpans turns a traced repetition's call log and event receipts into
// the span list: one rollout span, a stage and a stage-gap span per stage,
// and a call span per deploy.Node invocation parented on its stage.
func buildSpans(rr *repResult, calls []pendingCall, clusters []clusterSpec) *recorder {
	rec := &recorder{}
	// Balanced runs cluster i's representative in stage 2i, the others in 2i+1.
	stageOf := make(map[string]int, len(calls)/2)
	for i, c := range clusters {
		stageOf[c.Rep] = 2 * i
		for _, o := range c.Others {
			stageOf[o] = 2*i + 1
		}
	}
	rel := func(t time.Time) int64 { return t.Sub(rr.start).Nanoseconds() }
	rec.spans = append(rec.spans, span{Name: "rollout", Layer: "orchestrator", StartNS: 0,
		EndNS: rr.wall.Nanoseconds(), Rollout: rr.id})
	st := stagesOf(rr.events)
	for i := 0; i < st.stages; i++ {
		s, okS := st.start[i]
		g, okG := st.gate[i]
		if okS && okG {
			rec.spans = append(rec.spans, span{Name: stageName(i), Layer: "deploy", StartNS: rel(s), EndNS: rel(g),
				Parent: "rollout", Rollout: rr.id})
		}
		if next, ok := st.start[i+1]; ok && okG {
			rec.spans = append(rec.spans, span{Name: fmt.Sprintf("stage-gap %d", i), Layer: "deploy",
				StartNS: rel(g), EndNS: rel(next), Parent: "rollout", Rollout: rr.id})
		}
	}
	for _, c := range calls {
		rec.spans = append(rec.spans, span{Name: c.op + " " + c.member, Layer: "transport",
			StartNS: rel(c.start), EndNS: rel(c.start.Add(c.dur)), Parent: stageName(stageOf[c.member]), Rollout: rr.id})
		if c.op == "test" {
			rec.test = append(rec.test, c.dur)
		} else {
			rec.integrate = append(rec.integrate, c.dur)
		}
	}
	return rec
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// write saves the spans as trace-<workload>.json under dir.
func (rec *recorder) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(rec.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
