package bench

import (
	"fmt"

	"datacell/internal/workload"
)

// RunFig5a reproduces Figure 5(a): Q1 per-step response time as predicate
// selectivity varies from 10% to 90%. Paper parameters: |W| = 1.024e7,
// |w| = 2e4.
func RunFig5a(cfg Config) (*Table, error) {
	W, w := cfg.sized(10_240_000, 512)
	windows := cfg.windows(6)
	t := &Table{
		Figure: "Fig 5(a)",
		Title:  fmt.Sprintf("Q1 vs selectivity, |W|=%d |w|=%d", W, w),
		Header: []string{"selectivity_%", "DataCellR_ms", "DataCell_ms"},
	}
	run := func(selPct int) (*windowTimer, *windowTimer, error) {
		e, ree, inc, err := q1Setup(W, w, float64(selPct)/100)
		if err != nil {
			return nil, nil, err
		}
		gen := workload.NewGen(5001+int64(selPct), x1Domain, 1000)
		total := W + (windows-1)*w
		return ree, inc, feedAndPump(e, []string{"s"}, []*workload.Gen{gen}, total, w)
	}
	// One untimed run first: the first timed row would otherwise pay the
	// process's cold start (allocator, caches), which can exceed the
	// growth with selectivity the figure shows.
	if _, _, err := run(10); err != nil {
		return nil, err
	}
	for _, selPct := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90} {
		ree, inc, err := run(selPct)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(selPct),
			ms(steadyMedian(ree.ResponseNS)),
			ms(steadyMedian(inc.ResponseNS)),
		})
	}
	return t, nil
}

// RunFig5b reproduces Figure 5(b): Q2 per-step response time as join
// selectivity varies from 1e-5% to 1e-2% (i.e. match probability 1e-7 to
// 1e-4 per pair). Paper parameters: |W| = 1.024e5, |w| = 1600.
func RunFig5b(cfg Config) (*Table, error) {
	cfg = cfg.joinCfg()
	W, w := cfg.sized(102_400, 64)
	windows := cfg.windows(6)
	t := &Table{
		Figure: "Fig 5(b)",
		Title:  fmt.Sprintf("Q2 vs join selectivity, |W|=%d |w|=%d", W, w),
		Header: []string{"join_sel_%", "DataCellR_ms", "DataCell_ms"},
	}
	for _, sel := range []float64{1e-7, 1e-6, 1e-5, 1e-4} {
		keyDomain := workload.KeyDomainForJoinSelectivity(sel)
		e, ree, inc, err := q2Setup(W, w, keyDomain)
		if err != nil {
			return nil, err
		}
		g1 := workload.NewGen(5101, x1Domain, keyDomain)
		g2 := workload.NewGen(5102, x1Domain, keyDomain)
		total := W + (windows-1)*w
		if err := feedAndPump(e, []string{"s1", "s2"}, []*workload.Gen{g1, g2}, total, w); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", sel*100),
			ms(steadyMedian(ree.ResponseNS)),
			ms(steadyMedian(inc.ResponseNS)),
		})
	}
	return t, nil
}
