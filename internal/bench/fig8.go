package bench

import (
	"fmt"

	"datacell/internal/engine"
	"datacell/internal/workload"
)

// RunFig8 reproduces Figure 8: query-plan adaptation via chunked
// processing of the newest basic window. The controller starts at m=1 and
// doubles m every 5 sliding steps while the response time improves,
// resorting to the best m once it degrades. The table reports the
// response time of every step together with the m in force, plus the flat
// DataCellR reference.
func RunFig8(cfg Config) (*Table, error) {
	W, w := cfg.sized(10_240_000, 16) // few, large basic windows: room for intra-step chunking
	steps := cfg.windows(60)

	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return nil, err
	}
	v := workload.ThresholdForSelectivity(x1Domain, 0.20)
	query := fmt.Sprintf(q1Template, W, w, v)
	ree, err := register(e, query, engine.Reevaluation, engine.Options{})
	if err != nil {
		return nil, err
	}
	adaptive, err := register(e, query, engine.Incremental, engine.Options{AdaptiveChunks: true})
	if err != nil {
		return nil, err
	}
	gen := workload.NewGen(8001, x1Domain, 1000)
	total := W + (steps-1)*w
	// Feed in small batches so early chunks can be processed before the
	// basic window completes (the whole point of the optimization).
	batch := w / 64
	if batch < 1 {
		batch = 1
	}
	if err := feedAndPump(e, []string{"s"}, []*workload.Gen{gen}, total, batch); err != nil {
		return nil, err
	}

	t := &Table{
		Figure: "Fig 8",
		Title:  fmt.Sprintf("Adaptive chunked processing, |W|=%d |w|=%d (m doubles every 5 steps)", W, w),
		Header: []string{"step", "m", "DataCell_ms", "DataCellR_ms"},
	}
	ch := adaptive.q.Chunker()
	history := ch.History()
	hIdx := 0
	m := 1
	for i, r := range adaptive.Results {
		// Reconstruct the m that was in force for step i from the
		// adaptation history (each history point covers AdaptEvery steps).
		if hIdx < len(history) && i >= (hIdx+1)*ch.AdaptEvery {
			hIdx++
		}
		if hIdx < len(history) {
			m = history[hIdx].M
		} else {
			m = ch.M()
		}
		reeMS := ""
		if i < len(ree.Results) {
			reeMS = ms(ree.ResponseNS[i])
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), fmt.Sprint(m),
			ms(r.Stats.MainNS + r.Stats.MergeNS), reeMS,
		})
	}
	t.Notes = fmt.Sprintf("controller settled on m=%d (frozen=%v)", ch.M(), ch.Frozen())
	return t, nil
}
