package core

import (
	"fmt"
	"strings"

	"datacell/internal/plan"
)

// Explain renders the incremental plan's stages in execution order — the
// analogue of EXPLAIN for rewritten continuous plans. It shows the four
// transformations at a glance: the per-basic-window fragments (split +
// replicate), the cell fragment (join matrix), the concat specifications
// and the merge/compensation tail. Grouped merge blocks are labelled with
// the kernel a default runtime runs them through; Runtime.Explain labels
// them for that runtime's options.
func (ip *IncPlan) Explain() string { return ip.explain(Options{}) }

// Explain renders the runtime's plan with the merge kernels this runtime
// chose (Baseline runs every block through the instruction path).
func (rt *Runtime) Explain() string { return rt.ip.explain(rt.opts) }

func (ip *IncPlan) explain(opts Options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "incremental plan: n=%d basic windows", ip.N)
	if ip.Landmark {
		sb.WriteString(" (landmark: cumulative intermediates)")
	}
	if ip.HasJoin {
		fmt.Fprintf(&sb, ", join matrix over sources %d x %d", ip.CellSources[0], ip.CellSources[1])
	}
	// The paper's "Discarding Input": retained state lives in cloned slots,
	// so every incremental plan drops base tuples once a basic window is
	// processed.
	sb.WriteString(", input discarded after processing")
	sb.WriteByte('\n')

	writeStage := func(title string, instrs []plan.Instr) {
		if len(instrs) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s:\n", title)
		for _, in := range instrs {
			fmt.Fprintf(&sb, "  %s\n", in.String())
		}
	}
	writeStage("static (once per step)", ip.Static)
	for s, instrs := range ip.PerBW {
		title := fmt.Sprintf("per basic window of source %d (%s) [independent per bw: parallel-eligible]", s, ip.Prog.Sources[s].Ref)
		if fp := ip.FragmentFingerprint(s); fp != "" {
			title += " fingerprint=" + fp
		}
		writeStage(title, instrs)
	}
	writeStage("per join-matrix cell", ip.Cell)
	if ip.Join != nil {
		if ok, why := ip.JoinIndex(opts); ok {
			sb.WriteString("join index: one probe per new row, hits fold into pane min(i,j)\n")
		} else {
			fmt.Fprintf(&sb, "join planning: greedy per-cell build side from exact post-filter cardinalities (r%d vs r%d), interned per-bw build tables, empty sides zero their cells (no join index: %s)\n",
				ip.Join.LeftIn, ip.Join.RightIn, why)
		}
	}
	if ip.HasJoin {
		ip.explainPanes(&sb, opts)
	}

	if len(ip.Concats) > 0 {
		sb.WriteString("merge inputs:\n")
		for _, c := range ip.Concats {
			from := fmt.Sprintf("slots of source %d", c.Source)
			if c.Kind == ConcatCell {
				from = "all matrix cells"
			}
			fmt.Fprintf(&sb, "  r%d := concat(r%d across %s)\n", c.Dst, c.Src, from)
		}
	}
	writeStage("merge (compensation + tail)", ip.Merge)
	for i, gm := range ip.GroupMerges {
		keys := make([]string, len(gm.CatKeys))
		for i, r := range gm.CatKeys {
			keys[i] = fmt.Sprintf("r%d", r)
		}
		aggs := make([]string, len(gm.Aggs))
		for i, a := range gm.Aggs {
			aggs[i] = fmt.Sprintf("%s(r%d)->r%d", a.Kind, a.Cat, a.Out)
		}
		kernel, why := ip.MergeKernel(i, opts)
		switch kernel {
		case MergeDelta:
			kernel += ": per-key totals maintained across slides (+new basic window, -expired), emitted without re-grouping"
			if _, pred, why := ip.HeadFilter(i); why == "" {
				kernel += fmt.Sprintf("; kept groups only (%s) when the head goes to scratch (no other query can adopt it; the residual copies the rows it keeps)", pred)
			} else {
				kernel += fmt.Sprintf("; fresh head every slide (%s)", why)
			}
		default:
			kernel += fmt.Sprintf(": block runs as written (not delta: %s)", why)
		}
		fmt.Fprintf(&sb, "grouped merge block @%d [keys %s, aggs %s] kernel=%s\n",
			gm.Start, strings.Join(keys, ","), strings.Join(aggs, ","), kernel)
	}

	for s, regs := range ip.SlotRegs {
		if len(regs) > 0 {
			fmt.Fprintf(&sb, "slots per basic window of source %d: %v\n", s, regs)
		}
	}
	if len(ip.CellRegs) > 0 {
		fmt.Fprintf(&sb, "slots per matrix cell: %v\n", ip.CellRegs)
	}
	return sb.String()
}

// explainPanes writes the join plan's matrix-panes line: the scalar
// aggregates folded through panes, then every cell concatenation left on
// the instruction path and why.
func (ip *IncPlan) explainPanes(sb *strings.Builder, opts Options) {
	var paned, left []string
	covered := map[plan.Reg]bool{}
	for i, p := range ip.Panes {
		covered[p.Cat] = true
		name := fmt.Sprintf("r%d %s", p.Out, p.Kind)
		if ok, why := ip.Pane(i, opts); ok {
			paned = append(paned, name)
		} else {
			left = append(left, fmt.Sprintf("%s (%s)", name, why))
		}
	}
	grouped := map[plan.Reg]bool{}
	for _, gm := range ip.GroupMerges {
		for _, r := range gm.CatKeys {
			grouped[r] = true
		}
		for _, a := range gm.Aggs {
			grouped[a.Cat] = true
		}
	}
	for _, c := range ip.Concats {
		if c.Kind != ConcatCell || covered[c.Dst] {
			continue
		}
		why := "join rows"
		if grouped[c.Dst] {
			why = "grouped"
		}
		left = append(left, fmt.Sprintf("r%d (%s)", c.Src, why))
	}
	sb.WriteString("matrix panes: ")
	if len(paned) == 0 {
		sb.WriteString("none")
	} else {
		fmt.Fprintf(sb, "%s (%d panes folded per slide; +new cells, -expired pane)", strings.Join(paned, ", "), ip.N)
	}
	if len(left) > 0 {
		fmt.Fprintf(sb, "; instruction path: %s", strings.Join(left, ", "))
	}
	sb.WriteByte('\n')
}
