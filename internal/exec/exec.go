package exec

import (
	"fmt"
	"strings"

	"datacell/internal/algebra"
	"datacell/internal/expr"
	"datacell/internal/plan"
	"datacell/internal/vector"
)

// DatumKind tags what a register currently holds.
type DatumKind uint8

// Register content kinds.
const (
	KindNil DatumKind = iota
	KindVec
	KindSel
	KindGroups
	KindTable
	// KindView holds a possibly multi-part column view (vector.View) bound
	// straight from the segment store. Part-aware operators (select, take,
	// scalar aggregates) consume it without flattening; everything else
	// materializes it lazily — and at most once — through vec().
	KindView
)

// Datum is a register value.
type Datum struct {
	Kind   DatumKind
	Vec    *vector.Vector
	Sel    vector.Sel
	Groups *algebra.Groups
	Table  algebra.JoinTable
	View   vector.View
}

// VecDatum wraps a vector.
func VecDatum(v *vector.Vector) Datum { return Datum{Kind: KindVec, Vec: v} }

// ViewDatum wraps a column view. Contiguous views (zero or one part)
// degrade to a plain vector datum — only genuinely boundary-spanning views
// take the part-aware paths.
func ViewDatum(v vector.View) Datum {
	if v.Contiguous() {
		return VecDatum(v.Vector())
	}
	return Datum{Kind: KindView, View: v}
}

// SelDatum wraps a selection. A nil selection is normalized to an empty
// one: inside register files, nil must never mean "all rows" (an empty
// join or select result would otherwise degenerate into a full take).
func SelDatum(s vector.Sel) Datum {
	if s == nil {
		s = vector.Sel{}
	}
	return Datum{Kind: KindSel, Sel: s}
}

// GroupsDatum wraps a group assignment.
func GroupsDatum(g *algebra.Groups) Datum { return Datum{Kind: KindGroups, Groups: g} }

// TableDatum wraps a reusable join build table.
func TableDatum(t algebra.JoinTable) Datum { return Datum{Kind: KindTable, Table: t} }

// Rows returns the cardinality a datum represents.
func (d Datum) Rows() int {
	switch d.Kind {
	case KindVec:
		return d.Vec.Len()
	case KindSel:
		return len(d.Sel)
	case KindGroups:
		return d.Groups.Len()
	case KindView:
		return d.View.Len()
	}
	return 0
}

// Input supplies the column data for one program source: the current window
// view of a basket, or a table's columns. When Views is non-nil it takes
// precedence over Cols and binds each column as a (possibly multi-part)
// segment view, letting the part-aware operators skip the contiguous copy
// for windows that span basket segment boundaries.
type Input struct {
	Cols  []*vector.Vector
	Views []vector.View
}

// Arity returns the number of columns the input supplies.
func (in Input) Arity() int {
	if in.Views != nil {
		return len(in.Views)
	}
	return len(in.Cols)
}

// Table is a materialized query result.
type Table struct {
	Names []string
	Cols  []*vector.Vector
}

// NumRows returns the row count (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Row returns row i as boxed values.
func (t *Table) Row(i int) []vector.Value {
	out := make([]vector.Value, len(t.Cols))
	for c, col := range t.Cols {
		out[c] = col.Get(i)
	}
	return out
}

// String renders the table as aligned text, capped at 20 rows.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Names, "\t"))
	sb.WriteByte('\n')
	n := t.NumRows()
	shown := n
	if shown > 20 {
		shown = 20
	}
	for i := 0; i < shown; i++ {
		vals := t.Row(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		sb.WriteString(strings.Join(parts, "\t"))
		sb.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&sb, "... (%d rows total)\n", n)
	}
	return sb.String()
}

// Run executes a whole program against the given inputs (one per source)
// and returns the result table.
func Run(p *plan.Program, inputs []Input) (*Table, error) {
	if len(inputs) != len(p.Sources) {
		return nil, fmt.Errorf("exec: program needs %d inputs, got %d", len(p.Sources), len(inputs))
	}
	regs := make([]Datum, p.NumRegs)
	var result *Table
	for idx, in := range p.Instrs {
		if in.Op == plan.OpResult {
			tbl, err := BuildResult(in, regs)
			if err != nil {
				return nil, fmt.Errorf("exec: instr %d: %w", idx, err)
			}
			result = tbl
			continue
		}
		if err := ExecInstr(in, regs, inputs); err != nil {
			return nil, fmt.Errorf("exec: instr %d (%s): %w", idx, in.Op, err)
		}
	}
	if result == nil {
		return nil, fmt.Errorf("exec: program produced no result")
	}
	return result, nil
}

// BuildResult assembles the output table from an OpResult instruction.
// Columns of unequal length can only arise from min/max over an empty
// input (the SQL-NULL case this engine does not represent); the whole
// result row is dropped then, deterministically in both execution modes.
func BuildResult(in plan.Instr, regs []Datum) (*Table, error) {
	t := &Table{Names: append([]string(nil), in.Names...)}
	minLen := -1
	for _, r := range in.In {
		d := regs[r]
		if d.Kind == KindView {
			// A bound column that flowed straight to the result (bare
			// projection): flatten here, caching like vec() does.
			d = VecDatum(d.View.Vector())
			regs[r] = d
		}
		if d.Kind != KindVec {
			return nil, fmt.Errorf("result register r%d holds %v, not a vector", r, d.Kind)
		}
		t.Cols = append(t.Cols, d.Vec)
		if minLen < 0 || d.Vec.Len() < minLen {
			minLen = d.Vec.Len()
		}
	}
	for i, c := range t.Cols {
		if c.Len() > minLen {
			t.Cols[i] = c.Slice(0, minLen)
		}
	}
	return t, nil
}

// ExecInstr executes a single non-result instruction against a register
// file. inputs may be nil for instruction streams that never bind sources
// (the incremental merge stage).
func ExecInstr(in plan.Instr, regs []Datum, inputs []Input) error {
	switch in.Op {
	case plan.OpBind:
		if in.Source >= len(inputs) {
			return fmt.Errorf("bind source %d out of range", in.Source)
		}
		src := inputs[in.Source]
		if in.Col >= src.Arity() {
			return fmt.Errorf("bind column %d out of range", in.Col)
		}
		if src.Views != nil {
			regs[in.Out[0]] = ViewDatum(src.Views[in.Col])
		} else {
			regs[in.Out[0]] = VecDatum(src.Cols[in.Col])
		}

	case plan.OpSelect:
		if d := regs[in.In[0]]; d.Kind == KindView {
			var out vector.Sel
			d.View.ForEachPart(func(base int, p *vector.Vector) {
				out = algebra.SelectInto(out, p, in.Cmp, in.Val, nil, int32(base))
			})
			regs[in.Out[0]] = SelDatum(out)
			break
		}
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		regs[in.Out[0]] = SelDatum(algebra.Select(v, in.Cmp, in.Val, nil))

	case plan.OpSelectBools:
		if d := regs[in.In[0]]; d.Kind == KindView {
			var out vector.Sel
			d.View.ForEachPart(func(base int, p *vector.Vector) {
				out = algebra.SelectBoolsInto(out, p, nil, int32(base))
			})
			regs[in.Out[0]] = SelDatum(out)
			break
		}
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		regs[in.Out[0]] = SelDatum(algebra.SelectBools(v, nil))

	case plan.OpTake:
		s, err := sel(regs, in.In[1])
		if err != nil {
			return err
		}
		if d := regs[in.In[0]]; d.Kind == KindView {
			regs[in.Out[0]] = VecDatum(d.View.Take(s))
			break
		}
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		regs[in.Out[0]] = VecDatum(v.Take(s))

	case plan.OpMap:
		env := &expr.Env{}
		for _, r := range in.In {
			v, err := vec(regs, r)
			if err != nil {
				return err
			}
			env.Cols = append(env.Cols, v)
		}
		out, err := expr.Eval(in.Expr, env)
		if err != nil {
			return err
		}
		regs[in.Out[0]] = VecDatum(out)

	case plan.OpHashJoin:
		l, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		r, err := vec(regs, in.In[1])
		if err != nil {
			return err
		}
		j := algebra.HashJoin(l, nil, r, nil)
		regs[in.Out[0]] = SelDatum(j.Left)
		regs[in.Out[1]] = SelDatum(j.Right)

	case plan.OpHashBuild:
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		regs[in.Out[0]] = TableDatum(algebra.BuildTable(v, nil))

	case plan.OpHashProbe:
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		d := regs[in.In[1]]
		if d.Kind != KindTable {
			return fmt.Errorf("r%d is not a hash table (kind %d)", in.In[1], d.Kind)
		}
		j := d.Table.Probe(v, nil)
		regs[in.Out[0]] = SelDatum(j.Left)
		regs[in.Out[1]] = SelDatum(j.Right)

	case plan.OpGroup:
		return execGroup(in, regs, algebra.Group)

	case plan.OpRepr:
		g, err := groups(regs, in.In[0])
		if err != nil {
			return err
		}
		regs[in.Out[0]] = SelDatum(g.Repr)

	case plan.OpAgg:
		if d := regs[in.In[0]]; d.Kind == KindView && len(in.In) == 1 {
			// Scalar aggregate over a boundary-spanning bound column:
			// aggregate part at a time, no contiguous copy.
			out := vector.New(aggType(in.Agg, d.View.Type()), 1)
			switch in.Agg {
			case algebra.AggSum:
				out.AppendValue(algebra.SumView(d.View))
			case algebra.AggCount:
				out.AppendValue(vector.IntValue(int64(d.View.Len())))
			case algebra.AggMin:
				if m, ok := algebra.MinView(d.View); ok {
					out.AppendValue(m)
				}
			case algebra.AggMax:
				if m, ok := algebra.MaxView(d.View); ok {
					out.AppendValue(m)
				}
			default:
				return fmt.Errorf("agg %s reached the executor", in.Agg)
			}
			regs[in.Out[0]] = VecDatum(out)
			break
		}
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		if len(in.In) == 2 { // grouped
			g, err := groups(regs, in.In[1])
			if err != nil {
				return err
			}
			regs[in.Out[0]] = VecDatum(algebra.GroupedAgg(in.Agg, v, nil, g))
			return nil
		}
		out := vector.New(aggType(in.Agg, v.Type()), 1)
		switch in.Agg {
		case algebra.AggSum:
			out.AppendValue(algebra.Sum(v, nil))
		case algebra.AggCount:
			out.AppendValue(algebra.Count(v, nil))
		case algebra.AggMin:
			if m, ok := algebra.Min(v, nil); ok {
				out.AppendValue(m)
			}
		case algebra.AggMax:
			if m, ok := algebra.Max(v, nil); ok {
				out.AppendValue(m)
			}
		default:
			return fmt.Errorf("agg %s reached the executor", in.Agg)
		}
		regs[in.Out[0]] = VecDatum(out)

	case plan.OpConcat:
		vs := make([]*vector.Vector, 0, len(in.In))
		for _, r := range in.In {
			v, err := vec(regs, r)
			if err != nil {
				return err
			}
			vs = append(vs, v)
		}
		regs[in.Out[0]] = VecDatum(vector.Concat(vs...))

	case plan.OpSort:
		keys := make([]algebra.SortKey, len(in.In))
		for i, r := range in.In {
			v, err := vec(regs, r)
			if err != nil {
				return err
			}
			keys[i] = algebra.SortKey{Col: v, Desc: in.Descs[i]}
		}
		regs[in.Out[0]] = SelDatum(algebra.Sort(keys, nil))

	case plan.OpLimitVec:
		v, err := vec(regs, in.In[0])
		if err != nil {
			return err
		}
		n := int(in.N)
		if n > v.Len() {
			n = v.Len()
		}
		regs[in.Out[0]] = VecDatum(v.Slice(0, n))

	case plan.OpResult:
		return fmt.Errorf("result instruction passed to ExecInstr")

	default:
		return fmt.Errorf("unknown opcode %s", in.Op)
	}
	return nil
}

func aggType(kind algebra.AggKind, in vector.Type) vector.Type {
	if kind == algebra.AggCount {
		return vector.Int64
	}
	return in
}

// ExecGroupMap executes an OpGroup as the seed did, on a fresh map per
// call (algebra.GroupMap) instead of Group's pooled table.
func ExecGroupMap(in plan.Instr, regs []Datum) error {
	return execGroup(in, regs, algebra.GroupMap)
}

func execGroup(in plan.Instr, regs []Datum, group func([]*vector.Vector, vector.Sel) *algebra.Groups) error {
	keys := make([]*vector.Vector, len(in.In))
	for i, r := range in.In {
		v, err := vec(regs, r)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	regs[in.Out[0]] = GroupsDatum(group(keys, nil))
	return nil
}

func vec(regs []Datum, r plan.Reg) (*vector.Vector, error) {
	d := regs[r]
	if d.Kind == KindView {
		// An operator without a part-aware path needs this column dense:
		// flatten once and cache the result back into the register, so
		// repeated consumers pay the copy at most once. Lazy beats the old
		// eager flatten — columns only ever read through part-aware
		// operators are never copied at all.
		flat := d.View.Vector()
		regs[r] = VecDatum(flat)
		return flat, nil
	}
	if d.Kind != KindVec {
		return nil, fmt.Errorf("r%d is not a vector (kind %d)", r, d.Kind)
	}
	return d.Vec, nil
}

func sel(regs []Datum, r plan.Reg) (vector.Sel, error) {
	d := regs[r]
	if d.Kind != KindSel {
		return nil, fmt.Errorf("r%d is not a selection (kind %d)", r, d.Kind)
	}
	return d.Sel, nil
}

func groups(regs []Datum, r plan.Reg) (*algebra.Groups, error) {
	d := regs[r]
	if d.Kind != KindGroups {
		return nil, fmt.Errorf("r%d is not a group structure (kind %d)", r, d.Kind)
	}
	return d.Groups, nil
}
