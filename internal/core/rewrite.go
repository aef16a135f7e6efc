package core

import (
	"fmt"

	"datacell/internal/algebra"
	"datacell/internal/plan"
	"datacell/internal/sql"
	"datacell/internal/vector"
)

// Class describes in which stage of the incremental plan a register lives.
type Class uint8

// Register/instruction stages.
const (
	// ClassStatic values depend on no stream (table binds, constants);
	// computed once per step before everything else.
	ClassStatic Class = iota
	// ClassPerBW values exist once per basic window of one stream.
	ClassPerBW
	// ClassCell values exist once per (left bw, right bw) join-matrix cell.
	ClassCell
	// ClassMerge values are computed in the merge stage from concatenated
	// partials.
	ClassMerge
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassStatic:
		return "static"
	case ClassPerBW:
		return "perbw"
	case ClassCell:
		return "cell"
	case ClassMerge:
		return "merge"
	}
	return "?"
}

// ConcatKind says where a merge-stage concatenation gathers its inputs.
type ConcatKind uint8

const (
	// ConcatPerBW concatenates a register across the n basic-window slots
	// of one source.
	ConcatPerBW ConcatKind = iota
	// ConcatCell concatenates a register across all live join-matrix cells.
	ConcatCell
)

// ConcatSpec instructs the runtime to fill merge register Dst with the
// concatenation of the stored values of Src.
type ConcatSpec struct {
	Dst    plan.Reg
	Src    plan.Reg
	Kind   ConcatKind
	Source int // for ConcatPerBW: which source's slots
}

// GroupMergeAgg is one aggregate of a grouped merge block: the
// concatenated partial values in Cat are re-aggregated with the
// compensating Kind into Out, grouped by the block's keys.
type GroupMergeAgg struct {
	Cat  plan.Reg
	Kind algebra.AggKind
	Out  plan.Reg
	// Typ is the partial column's type (untyped when the rewriter could
	// not derive it).
	Typ vector.Type
}

// PaneSpec is one scalar aggregate over the join matrix: the merge
// instruction Out := Kind(Cat), where Cat concatenates the partials of the
// cell register Out across every live cell. A runtime may instead keep the
// partials pre-aggregated in one pane per basic window that expires them
// and fold the N panes into Out (panes.go).
type PaneSpec struct {
	Cat, Out plan.Reg
	Kind     algebra.AggKind
	// Typ is the partial column's type (untyped when the rewriter could not
	// derive it).
	Typ vector.Type
}

// untyped marks a key or aggregate column whose type the rewriter could
// not derive statically; such a block never qualifies for a typed kernel.
const untyped = vector.Type(0xFF)

// GroupMergeSpec describes one grouped-aggregation compensation block in
// the merge stage — the re-group of concatenated partial keys plus the
// compensating grouped aggregates (Fig 3d). The block occupies Merge
// instructions [Start, Start+Len); its intermediate group/representative
// registers are synthesized and consumed nowhere else, so a runtime may
// replace the whole block with a kernel that fills exactly KeyOuts and the
// Aggs' Out registers (the delta-maintained state, IncPlan.MergeKernel).
type GroupMergeSpec struct {
	Start, Len int
	// CatKeys are the concatenated per-partial key columns (concat dsts).
	CatKeys []plan.Reg
	// KeyOuts receive the merged (representative) key columns, aligned
	// with CatKeys.
	KeyOuts []plan.Reg
	// KeyTypes are the key columns' types, aligned with CatKeys.
	KeyTypes []vector.Type
	Aggs     []GroupMergeAgg
	// Source is the windowed source whose per-basic-window slots feed every
	// concatenation of the block, or -1 when the join matrix's cells do.
	Source int
}

// IncPlan is the rewritten, incremental form of a physical program.
type IncPlan struct {
	Prog     *plan.Program
	N        int // basic windows per window (1 for landmark)
	Landmark bool

	// Static instructions run once per step before any other stage.
	Static []plan.Instr
	// PerBW[s] instructions run once per new basic window of source s.
	PerBW [][]plan.Instr
	// Cell instructions run once per new join-matrix cell.
	Cell []plan.Instr
	// CellSources are the two stream sources joined by the matrix.
	CellSources [2]int
	// HasJoin reports whether a stream-stream join matrix exists.
	HasJoin bool
	// Join describes the matrix's equi-join instruction so the runtime can
	// plan it adaptively (greedy build-side choice, interned per-bw build
	// tables, empty-side early termination). Nil when HasJoin is false.
	Join *JoinSpec
	// Merge instructions run once per step over concatenated partials and
	// end with the OpResult.
	Merge []plan.Instr
	// Concats must be materialized (in order) before Merge runs.
	Concats []ConcatSpec
	// GroupMerges lists the grouped-aggregation blocks inside Merge, by
	// ascending Start; IncPlan.MergeKernel says which kernel runs each.
	GroupMerges []GroupMergeSpec
	// Panes lists the scalar aggregates over the join matrix, in merge
	// order. IncPlan.Pane says which of them a runtime folds through
	// matrix panes.
	Panes []PaneSpec

	// SlotRegs[s] lists the per-basic-window registers of source s whose
	// values the runtime must retain across steps.
	SlotRegs [][]plan.Reg
	// CellRegs lists the per-cell registers retained per matrix cell.
	CellRegs []plan.Reg
	// BindRegs marks registers whose values alias basket storage; the
	// runtime clones them before storing in a slot.
	BindRegs map[plan.Reg]bool
	// NumRegs is the size of the (extended) register file.
	NumRegs int
	classes []Class
	srcOf   []int
}

// ClassOf returns the stage of an original-program register.
func (ip *IncPlan) ClassOf(r plan.Reg) Class { return ip.classes[r] }

// JoinSpec locates the stream-stream equi-join inside the Cell stage:
// Cell[At] is the OpHashJoin whose key inputs are the per-basic-window
// registers LeftIn (source CellSources[0]) and RightIn (CellSources[1]) and
// whose outputs are the aligned selections OutL/OutR. The runtime may
// evaluate it through either build orientation — results are canonical
// either way — and substitute interned per-bw build tables. IntKeys
// reports that both key registers are known to hold integer columns.
type JoinSpec struct {
	LeftIn, RightIn plan.Reg
	OutL, OutR      plan.Reg
	At              int
	IntKeys         bool
}

// cluster captures a grouped-aggregation pattern (group, repr, key takes,
// grouped aggs) that must be merged by re-grouping concatenated partials.
type cluster struct {
	stage    Class // ClassPerBW or ClassCell
	source   int   // for ClassPerBW
	groupReg plan.Reg
	reprReg  plan.Reg
	keyIns   []plan.Reg // inputs of the OpGroup (per-bw key vectors)
	keyTakes []plan.Reg // take(keyIns[i], repr); synthesized when absent
	haveTake []bool
	aggs     []clusterAgg
	merged   bool
}

type clusterAgg struct {
	reg  plan.Reg
	kind algebra.AggKind
}

type rewriter struct {
	prog     *plan.Program
	ip       *IncPlan
	classes  []Class
	srcOf    []int // for ClassPerBW regs
	aggKind  map[plan.Reg]algebra.AggKind
	clusters map[plan.Reg]*cluster // by groups reg
	owner    map[plan.Reg]*cluster // key-take and agg regs -> cluster
	merged   map[plan.Reg]bool     // regs already materialized in merge env
	slotted  map[plan.Reg]bool
	cellSlot map[plan.Reg]bool
	bindRegs map[plan.Reg]bool
	regType  map[plan.Reg]vector.Type // vector-producing regs only
}

// Rewrite transforms an optimized physical program into an incremental
// plan with n basic windows per window. landmark selects cumulative
// (landmark) semantics, in which case n is ignored.
func Rewrite(prog *plan.Program, n int, landmark bool) (*IncPlan, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if landmark {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one basic window, got %d", n)
	}
	rw := &rewriter{
		prog: prog,
		ip: &IncPlan{
			Prog:     prog,
			N:        n,
			Landmark: landmark,
			PerBW:    make([][]plan.Instr, len(prog.Sources)),
			SlotRegs: make([][]plan.Reg, len(prog.Sources)),
			NumRegs:  prog.NumRegs,
		},
		classes:  make([]Class, prog.NumRegs),
		srcOf:    make([]int, prog.NumRegs),
		aggKind:  map[plan.Reg]algebra.AggKind{},
		clusters: map[plan.Reg]*cluster{},
		owner:    map[plan.Reg]*cluster{},
		merged:   map[plan.Reg]bool{},
		slotted:  map[plan.Reg]bool{},
		cellSlot: map[plan.Reg]bool{},
		bindRegs: map[plan.Reg]bool{},
		regType:  map[plan.Reg]vector.Type{},
	}
	for i := range rw.classes {
		rw.classes[i] = ClassStatic
	}
	for _, in := range prog.Instrs {
		rw.propagateType(in)
		if err := rw.classify(in); err != nil {
			return nil, err
		}
	}
	rw.ip.classes = rw.classes
	rw.ip.srcOf = rw.srcOf
	rw.ip.BindRegs = rw.bindRegs
	// Collect slot registers (including synthesized ones, e.g. per-bw hash
	// builds and key takes) in deterministic order.
	for s := range prog.Sources {
		for r := plan.Reg(0); int(r) < len(rw.classes); r++ {
			if rw.slotted[r] && rw.classes[r] == ClassPerBW && rw.srcOf[r] == s {
				rw.ip.SlotRegs[s] = append(rw.ip.SlotRegs[s], r)
			}
		}
	}
	for r := plan.Reg(0); int(r) < len(rw.classes); r++ {
		if rw.cellSlot[r] {
			rw.ip.CellRegs = append(rw.ip.CellRegs, r)
		}
	}
	return rw.ip, nil
}

func (rw *rewriter) newReg() plan.Reg {
	r := plan.Reg(rw.ip.NumRegs)
	rw.ip.NumRegs++
	rw.classes = append(rw.classes, ClassMerge)
	rw.srcOf = append(rw.srcOf, -1)
	return r
}

func (rw *rewriter) isWindowedStream(srcIdx int) bool {
	s := rw.prog.Sources[srcIdx]
	return s.IsStream && s.Window != nil
}

// stageOf computes the joint stage of a set of input registers. Inputs
// holding *partial* values (scalar aggregate partials or grouped-cluster
// members) force the merge stage: only the synthesized compensation may
// consume partials within their own stage.
func (rw *rewriter) stageOf(ins []plan.Reg) (Class, int, error) {
	for _, r := range ins {
		if _, isAggPartial := rw.aggKind[r]; isAggPartial {
			return ClassMerge, -1, nil
		}
		if _, isClusterMember := rw.owner[r]; isClusterMember {
			return ClassMerge, -1, nil
		}
	}
	stage := ClassStatic
	src := -1
	for _, r := range ins {
		switch rw.classes[r] {
		case ClassStatic:
		case ClassPerBW:
			switch stage {
			case ClassStatic:
				stage, src = ClassPerBW, rw.srcOf[r]
			case ClassPerBW:
				if src != rw.srcOf[r] {
					return 0, 0, fmt.Errorf("core: instruction mixes basic windows of sources %d and %d without a join", src, rw.srcOf[r])
				}
			case ClassCell:
				// PerBW inputs resolve per-cell; stays cell.
			case ClassMerge:
				// handled by caller via getGlobal
			}
		case ClassCell:
			if stage == ClassMerge {
				break
			}
			stage, src = ClassCell, -1
		case ClassMerge:
			stage, src = ClassMerge, -1
		}
	}
	// Merge dominates everything: re-scan.
	for _, r := range ins {
		if rw.classes[r] == ClassMerge {
			return ClassMerge, -1, nil
		}
	}
	return stage, src, nil
}

func (rw *rewriter) appendTo(stage Class, src int, in plan.Instr) {
	switch stage {
	case ClassStatic:
		rw.ip.Static = append(rw.ip.Static, in)
	case ClassPerBW:
		rw.ip.PerBW[src] = append(rw.ip.PerBW[src], in)
	case ClassCell:
		rw.ip.Cell = append(rw.ip.Cell, in)
	case ClassMerge:
		rw.ip.Merge = append(rw.ip.Merge, in)
	}
}

func (rw *rewriter) setOut(in plan.Instr, stage Class, src int) {
	for _, o := range in.Out {
		rw.classes[o] = stage
		if stage == ClassPerBW {
			rw.srcOf[o] = src
		}
	}
}

func (rw *rewriter) classify(in plan.Instr) error {
	switch in.Op {
	case plan.OpBind:
		if rw.isWindowedStream(in.Source) {
			rw.classes[in.Out[0]] = ClassPerBW
			rw.srcOf[in.Out[0]] = in.Source
			rw.bindRegs[in.Out[0]] = true
			rw.ip.PerBW[in.Source] = append(rw.ip.PerBW[in.Source], in)
			return nil
		}
		rw.classes[in.Out[0]] = ClassStatic
		rw.ip.Static = append(rw.ip.Static, in)
		return nil

	case plan.OpResult:
		return rw.emitMerge(in)

	case plan.OpSort, plan.OpLimitVec, plan.OpConcat:
		// Order- and cardinality-sensitive operators always run on merged
		// data (the conservative compensation).
		return rw.emitMerge(in)

	case plan.OpHashJoin:
		return rw.classifyJoin(in)

	case plan.OpGroup:
		return rw.classifyGroup(in)

	case plan.OpRepr:
		g := in.In[0]
		if cl, ok := rw.clusters[g]; ok {
			cl.reprReg = in.Out[0]
			rw.classes[in.Out[0]] = cl.stage
			if cl.stage == ClassPerBW {
				rw.srcOf[in.Out[0]] = cl.source
			}
			rw.appendTo(cl.stage, cl.source, in)
			return nil
		}
		// Groups live in merge (or static): same stage.
		stage := rw.classes[g]
		rw.setOut(in, stage, -1)
		rw.appendTo(stage, -1, in)
		return nil

	case plan.OpAgg:
		return rw.classifyAgg(in)

	case plan.OpTake:
		return rw.classifyTake(in)

	case plan.OpSelect, plan.OpSelectBools, plan.OpMap:
		stage, src, err := rw.stageOf(in.In)
		if err != nil {
			return err
		}
		if stage == ClassMerge {
			return rw.emitMerge(in)
		}
		rw.setOut(in, stage, src)
		rw.appendTo(stage, src, in)
		if stage == ClassCell {
			rw.needCellInputs(in.In)
		}
		return nil
	}
	return fmt.Errorf("core: cannot classify opcode %s", in.Op)
}

func (rw *rewriter) classifyJoin(in plan.Instr) error {
	lc, rc := rw.classes[in.In[0]], rw.classes[in.In[1]]
	switch {
	case lc == ClassStatic && rc == ClassStatic:
		rw.setOut(in, ClassStatic, -1)
		rw.ip.Static = append(rw.ip.Static, in)
	case lc == ClassPerBW && rc == ClassStatic:
		// Stream-table join: build the table side once per step, probe it
		// from every basic window (reused intermediate).
		src := rw.srcOf[in.In[0]]
		if rw.intKey(in.In[0]) && rw.intKey(in.In[1]) {
			bld := rw.newRegIn(ClassStatic, -1)
			rw.ip.Static = append(rw.ip.Static, plan.Instr{Op: plan.OpHashBuild, In: []plan.Reg{in.In[1]}, Out: []plan.Reg{bld}})
			probe := plan.Instr{Op: plan.OpHashProbe, In: []plan.Reg{in.In[0], bld}, Out: in.Out}
			rw.setOut(probe, ClassPerBW, src)
			rw.ip.PerBW[src] = append(rw.ip.PerBW[src], probe)
			return nil
		}
		rw.setOut(in, ClassPerBW, src)
		rw.ip.PerBW[src] = append(rw.ip.PerBW[src], in)
	case lc == ClassStatic && rc == ClassPerBW:
		rw.setOut(in, ClassPerBW, rw.srcOf[in.In[1]])
		rw.ip.PerBW[rw.srcOf[in.In[1]]] = append(rw.ip.PerBW[rw.srcOf[in.In[1]]], in)
	case lc == ClassPerBW && rc == ClassPerBW:
		ls, rs := rw.srcOf[in.In[0]], rw.srcOf[in.In[1]]
		if ls == rs {
			// Self-join of one stream's basic windows: treat per-bw.
			rw.setOut(in, ClassPerBW, ls)
			rw.ip.PerBW[ls] = append(rw.ip.PerBW[ls], in)
			return nil
		}
		if rw.ip.HasJoin && (rw.ip.CellSources[0] != ls || rw.ip.CellSources[1] != rs) {
			return fmt.Errorf("core: at most one stream-stream join is supported")
		}
		rw.ip.HasJoin = true
		rw.ip.CellSources = [2]int{ls, rs}
		// The join instruction stays in the cell stage as written; JoinSpec
		// lets the runtime plan it per slide — pick the build side greedily
		// from exact post-filter cardinalities, intern each basic window's
		// build table in its slot ring and probe it from every cell in its
		// row/column (the join replication of Fig 3e with MonetDB-style
		// intermediate reuse), and zero empty cells without evaluation.
		rw.setOut(in, ClassCell, -1)
		rw.ip.Cell = append(rw.ip.Cell, in)
		rw.needCellInputs(in.In)
		rw.ip.Join = &JoinSpec{
			LeftIn:  in.In[0],
			RightIn: in.In[1],
			OutL:    in.Out[0],
			OutR:    in.Out[1],
			At:      len(rw.ip.Cell) - 1,
			IntKeys: rw.intKey(in.In[0]) && rw.intKey(in.In[1]),
		}
	case lc == ClassCell || rc == ClassCell:
		return fmt.Errorf("core: joins over join results are not supported incrementally")
	default:
		// At least one merged input: run the join on merged data.
		return rw.emitMerge(in)
	}
	return nil
}

// propagateType records the vector type of vector-producing instructions,
// so the rewriter can decide whether a join key is eligible for the
// integer hash table.
func (rw *rewriter) propagateType(in plan.Instr) {
	switch in.Op {
	case plan.OpBind:
		rw.regType[in.Out[0]] = rw.prog.Sources[in.Source].Schema.Cols[in.Col].Type
	case plan.OpTake, plan.OpLimitVec, plan.OpConcat:
		if t, ok := rw.regType[in.In[0]]; ok {
			rw.regType[in.Out[0]] = t
		}
	case plan.OpMap:
		rw.regType[in.Out[0]] = in.Expr.Type()
	case plan.OpAgg:
		if in.Agg == algebra.AggCount {
			rw.regType[in.Out[0]] = vector.Int64
		} else if t, ok := rw.regType[in.In[0]]; ok {
			rw.regType[in.Out[0]] = t
		}
	}
}

// newRegIn allocates a synthetic register with an explicit class.
func (rw *rewriter) newRegIn(class Class, src int) plan.Reg {
	r := rw.newReg()
	rw.classes[r] = class
	rw.srcOf[r] = src
	return r
}

// typeOf returns the statically derived column type of r, or untyped.
func (rw *rewriter) typeOf(r plan.Reg) vector.Type {
	if t, ok := rw.regType[r]; ok {
		return t
	}
	return untyped
}

// intKey reports whether a register is known to hold an integer-typed
// vector (eligible for the reusable hash table).
func (rw *rewriter) intKey(r plan.Reg) bool { return vector.IntKind(rw.typeOf(r)) }

func (rw *rewriter) classifyGroup(in plan.Instr) error {
	stage, src, err := rw.stageOf(in.In)
	if err != nil {
		return err
	}
	if stage == ClassMerge {
		return rw.emitMerge(in)
	}
	rw.setOut(in, stage, src)
	rw.appendTo(stage, src, in)
	if stage == ClassPerBW || stage == ClassCell {
		rw.clusters[in.Out[0]] = &cluster{
			stage:    stage,
			source:   src,
			groupReg: in.Out[0],
			keyIns:   append([]plan.Reg(nil), in.In...),
			keyTakes: make([]plan.Reg, len(in.In)),
			haveTake: make([]bool, len(in.In)),
		}
		if stage == ClassCell {
			rw.needCellInputs(in.In)
		}
	}
	return nil
}

func (rw *rewriter) classifyAgg(in plan.Instr) error {
	grouped := len(in.In) == 2
	if grouped {
		g := in.In[1]
		if cl, ok := rw.clusters[g]; ok {
			rw.classes[in.Out[0]] = cl.stage
			if cl.stage == ClassPerBW {
				rw.srcOf[in.Out[0]] = cl.source
			}
			cl.aggs = append(cl.aggs, clusterAgg{reg: in.Out[0], kind: in.Agg})
			rw.owner[in.Out[0]] = cl
			rw.appendTo(cl.stage, cl.source, in)
			if cl.stage == ClassCell {
				rw.needCellInputs(in.In[:1])
			}
			return nil
		}
		// Groups already in merge/static: aggregate there.
		if rw.classes[g] == ClassStatic && rw.classes[in.In[0]] == ClassStatic {
			rw.setOut(in, ClassStatic, -1)
			rw.ip.Static = append(rw.ip.Static, in)
			return nil
		}
		return rw.emitMerge(in)
	}
	// Scalar aggregate.
	stage, src, err := rw.stageOf(in.In)
	if err != nil {
		return err
	}
	switch stage {
	case ClassStatic:
		rw.setOut(in, ClassStatic, -1)
		rw.ip.Static = append(rw.ip.Static, in)
	case ClassPerBW, ClassCell:
		rw.setOut(in, stage, src)
		rw.appendTo(stage, src, in)
		rw.aggKind[in.Out[0]] = in.Agg
		if stage == ClassCell {
			rw.needCellInputs(in.In)
		}
	case ClassMerge:
		return rw.emitMerge(in)
	}
	return nil
}

func (rw *rewriter) classifyTake(in plan.Instr) error {
	vecReg, selReg := in.In[0], in.In[1]
	// Key take of a grouped-aggregation cluster?
	for _, cl := range rw.clusters {
		if selReg == cl.reprReg {
			for i, k := range cl.keyIns {
				if k == vecReg && !cl.haveTake[i] {
					cl.keyTakes[i] = in.Out[0]
					cl.haveTake[i] = true
					rw.owner[in.Out[0]] = cl
					rw.classes[in.Out[0]] = cl.stage
					if cl.stage == ClassPerBW {
						rw.srcOf[in.Out[0]] = cl.source
					}
					rw.appendTo(cl.stage, cl.source, in)
					return nil
				}
			}
			// Take through repr of a non-key column (rare): treat like a
			// grouped "first" — not supported incrementally.
			return fmt.Errorf("core: take through group representatives of a non-key column is not supported incrementally")
		}
	}
	stage, src, err := rw.stageOf(in.In)
	if err != nil {
		return err
	}
	if stage == ClassMerge {
		return rw.emitMerge(in)
	}
	rw.setOut(in, stage, src)
	rw.appendTo(stage, src, in)
	if stage == ClassCell {
		rw.needCellInputs(in.In)
	}
	return nil
}

// needCellInputs marks per-bw registers consumed by cell instructions so
// the runtime keeps them in slots.
func (rw *rewriter) needCellInputs(ins []plan.Reg) {
	for _, r := range ins {
		if rw.classes[r] == ClassPerBW {
			rw.slotted[r] = true
		}
	}
}

// emitMerge appends an instruction to the merge stage, routing any per-bw
// or per-cell input through its merged (concatenated/compensated) global
// value first.
func (rw *rewriter) emitMerge(in plan.Instr) error {
	rewritten := in
	rewritten.In = append([]plan.Reg(nil), in.In...)
	for i, r := range rewritten.In {
		g, err := rw.getGlobal(r)
		if err != nil {
			return err
		}
		rewritten.In[i] = g
	}
	rw.setOut(rewritten, ClassMerge, -1)
	rw.ip.Merge = append(rw.ip.Merge, rewritten)
	return nil
}

// getGlobal returns a merge-stage register holding the full-window value of
// r, synthesizing concat/compensation instructions on first use.
func (rw *rewriter) getGlobal(r plan.Reg) (plan.Reg, error) {
	switch rw.classes[r] {
	case ClassStatic, ClassMerge:
		return r, nil
	}
	if rw.merged[r] {
		return r, nil
	}
	if cl, ok := rw.owner[r]; ok {
		if err := rw.materializeCluster(cl); err != nil {
			return 0, err
		}
		return r, nil
	}
	if kind, ok := rw.aggKind[r]; ok {
		// Scalar aggregate: concat partials, re-aggregate with the
		// compensating kind (count -> sum).
		c := rw.newReg()
		rw.addConcat(c, r)
		if rw.classes[r] == ClassCell {
			rw.ip.Panes = append(rw.ip.Panes, PaneSpec{Cat: c, Out: r, Kind: kind.MergeKind(), Typ: rw.typeOf(r)})
		}
		rw.ip.Merge = append(rw.ip.Merge, plan.Instr{
			Op: plan.OpAgg, Agg: kind.MergeKind(), In: []plan.Reg{c}, Out: []plan.Reg{r},
		})
		rw.merged[r] = true
		return r, nil
	}
	// Plain row values: simple concatenation (Fig 3a), written back into
	// the original register id within the merge environment.
	rw.addConcat(r, r)
	rw.merged[r] = true
	return r, nil
}

func (rw *rewriter) addConcat(dst, src plan.Reg) {
	spec := ConcatSpec{Dst: dst, Src: src}
	if rw.classes[src] == ClassCell {
		spec.Kind = ConcatCell
		rw.cellSlot[src] = true
	} else {
		spec.Kind = ConcatPerBW
		spec.Source = rw.srcOf[src]
		rw.slotted[src] = true
	}
	rw.ip.Concats = append(rw.ip.Concats, spec)
}

// materializeCluster emits the grouped-aggregation merge (Fig 3d): concat
// per-partial keys and values, re-group, take representative keys and
// re-aggregate with compensating kinds.
func (rw *rewriter) materializeCluster(cl *cluster) error {
	if cl.merged {
		return nil
	}
	cl.merged = true
	// Ensure every group key has a per-partial take; synthesize missing
	// ones at the end of the cluster's stage list.
	for i := range cl.keyIns {
		if cl.haveTake[i] {
			continue
		}
		if cl.reprReg == 0 && !rw.hasRepr(cl) {
			// The plan never extracted representatives; synthesize OpRepr.
			rr := rw.newReg()
			rw.classes[rr] = cl.stage
			if cl.stage == ClassPerBW {
				rw.srcOf[rr] = cl.source
			}
			rw.appendTo(cl.stage, cl.source, plan.Instr{Op: plan.OpRepr, In: []plan.Reg{cl.groupReg}, Out: []plan.Reg{rr}})
			cl.reprReg = rr
		}
		kt := rw.newReg()
		rw.classes[kt] = cl.stage
		if cl.stage == ClassPerBW {
			rw.srcOf[kt] = cl.source
		}
		rw.appendTo(cl.stage, cl.source, plan.Instr{Op: plan.OpTake, In: []plan.Reg{cl.keyIns[i], cl.reprReg}, Out: []plan.Reg{kt}})
		cl.keyTakes[i] = kt
		cl.haveTake[i] = true
	}
	// Concat the per-partial key columns and regroup.
	catKeys := make([]plan.Reg, len(cl.keyTakes))
	for i, kt := range cl.keyTakes {
		ck := rw.newReg()
		rw.addConcat(ck, kt)
		catKeys[i] = ck
	}
	spec := GroupMergeSpec{Start: len(rw.ip.Merge), CatKeys: catKeys, Source: -1}
	if cl.stage == ClassPerBW {
		spec.Source = cl.source
	}
	for _, k := range cl.keyIns {
		spec.KeyTypes = append(spec.KeyTypes, rw.typeOf(k))
	}
	g2 := rw.newReg()
	rw.ip.Merge = append(rw.ip.Merge, plan.Instr{Op: plan.OpGroup, In: catKeys, Out: []plan.Reg{g2}})
	rs2 := rw.newReg()
	rw.ip.Merge = append(rw.ip.Merge, plan.Instr{Op: plan.OpRepr, In: []plan.Reg{g2}, Out: []plan.Reg{rs2}})
	for i, kt := range cl.keyTakes {
		// The merged key column lands in the original key-take register.
		rw.ip.Merge = append(rw.ip.Merge, plan.Instr{Op: plan.OpTake, In: []plan.Reg{catKeys[i], rs2}, Out: []plan.Reg{kt}})
		rw.merged[kt] = true
		spec.KeyOuts = append(spec.KeyOuts, kt)
	}
	for _, ag := range cl.aggs {
		cv := rw.newReg()
		rw.addConcat(cv, ag.reg)
		rw.ip.Merge = append(rw.ip.Merge, plan.Instr{
			Op: plan.OpAgg, Agg: ag.kind.MergeKind(), In: []plan.Reg{cv, g2}, Out: []plan.Reg{ag.reg},
		})
		rw.merged[ag.reg] = true
		spec.Aggs = append(spec.Aggs, GroupMergeAgg{Cat: cv, Kind: ag.kind.MergeKind(), Out: ag.reg, Typ: rw.typeOf(ag.reg)})
	}
	spec.Len = len(rw.ip.Merge) - spec.Start
	rw.ip.GroupMerges = append(rw.ip.GroupMerges, spec)
	return nil
}

func (rw *rewriter) hasRepr(cl *cluster) bool {
	// reprReg zero value is ambiguous with register 0; track via classes:
	// register 0 is always a bind output, so reprReg==0 means "unset".
	return cl.reprReg != 0
}

// BasicWindows derives n = |W|/|w| from a window spec.
func BasicWindows(w *sql.WindowSpec) int {
	switch w.Kind {
	case sql.CountWindow:
		return int(w.Rows / w.SlideRows)
	case sql.TimeWindow:
		return int(w.Dur / w.SlideDur)
	case sql.LandmarkWindow:
		return 1
	}
	return 1
}
