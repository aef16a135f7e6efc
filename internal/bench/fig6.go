package bench

import (
	"fmt"

	"datacell/internal/engine"
	"datacell/internal/workload"
)

// RunFig6a reproduces Figure 6(a): Q1 per-step response time for window
// sizes 1e6, 1e7, 1e8 tuples with the number of basic windows fixed at
// 512 (so the step grows with the window).
func RunFig6a(cfg Config) (*Table, error) {
	windows := cfg.windows(4)
	t := &Table{
		Figure: "Fig 6(a)",
		Title:  "Q1 vs window size (512 basic windows, sel=20%)",
		Header: []string{"window_size", "DataCellR_ms", "DataCell_ms"},
	}
	for _, paperW := range []int{1_000_000, 10_000_000, 100_000_000} {
		W, w := cfg.sized(paperW, 512)
		e, ree, inc, err := q1Setup(W, w, 0.20)
		if err != nil {
			return nil, err
		}
		gen := workload.NewGen(6001+int64(paperW/1_000_000), x1Domain, 1000)
		total := W + (windows-1)*w
		if err := feedAndPump(e, []string{"s"}, []*workload.Gen{gen}, total, w); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(W),
			ms(steadyMedian(ree.ResponseNS)),
			ms(steadyMedian(inc.ResponseNS)),
		})
	}
	return t, nil
}

// Q3 is the paper's landmark query (Fig 6b):
//
//	SELECT max(x1), sum(x2) FROM stream WHERE x1 > v  [LANDMARK SLIDE w]
func RunFig6b(cfg Config) (*Table, error) {
	w := cfg.scale(2_500_000)
	windows := cfg.windows(40)
	e := engine.New()
	if err := e.RegisterStream("s", intSchema()); err != nil {
		return nil, err
	}
	v := workload.ThresholdForSelectivity(x1Domain, 0.20)
	query := fmt.Sprintf(`SELECT max(x1), sum(x2) FROM s [LANDMARK SLIDE %d] WHERE x1 > %d`, w, v)
	ree, err := register(e, query, engine.Reevaluation, engine.Options{})
	if err != nil {
		return nil, err
	}
	inc, err := register(e, query, engine.Incremental, engine.Options{})
	if err != nil {
		return nil, err
	}
	gen := workload.NewGen(6002, x1Domain, 1000)
	if err := feedAndPump(e, []string{"s"}, []*workload.Gen{gen}, windows*w, w); err != nil {
		return nil, err
	}
	t := &Table{
		Figure: "Fig 6(b)",
		Title:  fmt.Sprintf("Q3 landmark windows, |w|=%d sel=20%%", w),
		Header: []string{"window", "DataCellR_ms", "DataCell_ms"},
	}
	for i := 0; i < len(inc.ResponseNS) && i < len(ree.ResponseNS); i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), ms(ree.ResponseNS[i]), ms(inc.ResponseNS[i]),
		})
	}
	return t, nil
}
