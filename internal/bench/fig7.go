package bench

import (
	"fmt"

	"datacell/internal/workload"
)

// RunFig7a reproduces Figure 7(a): Q1 with fixed |W| = 1.024e7 while the
// number of basic windows grows from 2 to 2048 (the step shrinks
// accordingly). Reports DataCellR total, DataCell total, and DataCell's
// split into main-plan vs merge cost.
func RunFig7a(cfg Config) (*Table, error) {
	windows := cfg.windows(5)
	t := &Table{
		Figure: "Fig 7(a)",
		Title:  fmt.Sprintf("Q1 vs number of basic windows, |W|~%d sel=20%%", cfg.scale(10_240_000)),
		Header: []string{"basic_windows", "DataCellR_ms", "DataCell_ms", "DataCell_main_ms", "DataCell_merge_ms"},
	}
	for _, nbw := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		W, w := cfg.sized(10_240_000, nbw)
		if w < 2 && nbw > 2 {
			break
		}
		e, ree, inc, err := q1Setup(W, w, 0.20)
		if err != nil {
			return nil, err
		}
		gen := workload.NewGen(7001+int64(nbw), x1Domain, 1000)
		total := W + (windows-1)*w
		if err := feedAndPump(e, []string{"s"}, []*workload.Gen{gen}, total, w); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nbw),
			ms(steadyMedian(ree.ResponseNS)),
			ms(steadyMedian(inc.ResponseNS)),
			ms(steadyMedian(inc.MainNS)),
			ms(steadyMedian(inc.MergeNS)),
		})
	}
	return t, nil
}

// RunFig7b reproduces Figure 7(b): the same sweep for the join query Q2
// with fixed |W| = 1.024e5 and 2..64 basic windows. The paper's key
// observation: here the merge cost dominates while the main (join) cost
// becomes negligible — the opposite of Q1.
func RunFig7b(cfg Config) (*Table, error) {
	cfg = cfg.joinCfg()
	windows := cfg.windows(5)
	t := &Table{
		Figure: "Fig 7(b)",
		Title:  fmt.Sprintf("Q2 vs number of basic windows, |W|~%d", cfg.scale(102_400)),
		Header: []string{"basic_windows", "DataCellR_ms", "DataCell_ms", "DataCell_main_ms", "DataCell_merge_ms"},
	}
	keyDomain := int64(1000)
	for _, nbw := range []int{2, 4, 8, 16, 32, 64} {
		W, w := cfg.sized(102_400, nbw)
		if w < 2 && nbw > 2 {
			break
		}
		e, ree, inc, err := q2Setup(W, w, keyDomain)
		if err != nil {
			return nil, err
		}
		g1 := workload.NewGen(7101, x1Domain, keyDomain)
		g2 := workload.NewGen(7102, x1Domain, keyDomain)
		total := W + (windows-1)*w
		if err := feedAndPump(e, []string{"s1", "s2"}, []*workload.Gen{g1, g2}, total, w); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nbw),
			ms(steadyMedian(ree.ResponseNS)),
			ms(steadyMedian(inc.ResponseNS)),
			ms(steadyMedian(inc.MainNS)),
			ms(steadyMedian(inc.MergeNS)),
		})
	}
	return t, nil
}
