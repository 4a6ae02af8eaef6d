package sim

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"

	"aid/internal/trace"
)

// This file is the compilation half of the replay engine: it flattens a
// Program's op trees into a contiguous instruction array with
// pre-resolved integer slots for locals, globals, arrays, mutexes and
// exception kinds, and lowers structured control flow (If/While/Try,
// calls) to jump targets. Compilation happens once per Program (cached
// on the Program) and once per injection plan (Prepare); the thousands
// of replays that follow run on the slot-indexed machine (machine.go)
// without any string hashing or per-step tree walking.
//
// The compiled form is step-exact with the tree-walking reference
// interpreter (interp_test.go, test-only): every interpreter scheduler step — including the
// "invisible" ones like block-frame pops, the two-step while-loop exit,
// and one-frame-per-step unwinding — maps to exactly one instruction
// execution. Step-exactness is what makes the traces byte-identical:
// timestamps are step counters and the scheduler's RNG draw sequence
// depends on the per-step runnable set.

type opcode uint8

const (
	// opNop consumes one step: Nop, and the interpreter's extra
	// while-exit step (re-checking the loop condition in the outer
	// frame after the loop frame popped).
	opNop opcode = iota
	opAssign
	opArith
	opReadGlobal
	opWriteGlobal
	opArrayRead
	opArrayWrite
	opArrayLen
	opArrayResize
	opLock
	opUnlock
	opSleep
	opWaitUntil
	opCall
	opReturn
	// opReturnVoid doubles as the implicit return emitted at the end of
	// every function body (the interpreter's frameEnd on a call frame is
	// one step that enters return mode with a void value — identical).
	opReturnVoid
	opThrow
	// opTryEnter pushes a try record (catch kind + handler target).
	opTryEnter
	// opIf evaluates the condition: true pushes a block record and falls
	// through to the then-branch; false jumps to the else-branch (b,
	// pushing a block record) or straight to the continuation (c) when
	// there is no else.
	opIf
	// opEndBlock pops the innermost control record and jumps to the
	// continuation — the interpreter's one-step block/try frame pop.
	opEndBlock
	// opWhileEnter evaluates the condition: true pushes a while record
	// and falls through to the body; false jumps past the loop.
	opWhileEnter
	// opWhileCheck re-evaluates at body end: true jumps back to the body
	// start, false pops the while record (one step) and falls through to
	// the opNop exit pad (the second step of the interpreter's exit).
	opWhileCheck
	opSpawn
	opJoin
	opRandom
	opReadClock
	opFail
	// opPanic preserves the interpreter's behaviour on unknown op types:
	// the panic fires only if the instruction is actually executed.
	opPanic
)

// cexpr is a compiled Expr: a local slot when slot >= 0, else a literal.
type cexpr struct {
	slot int32
	lit  int64
}

func litExpr(v int64) cexpr { return cexpr{slot: -1, lit: v} }

// instr is one machine instruction. Field use varies by opcode:
// a is a destination local slot (-1 none), b is a symbol slot, jump
// target, function index or string index, c is a secondary jump target
// or catch-kind index, aux packs the Arith/Cmp operator.
type instr struct {
	op   opcode
	aux  uint8
	a    int32
	b    int32
	c    int32
	x, y cexpr
}

// catchAny is the catch-kind index of a "*" handler.
const catchAny int32 = -2

// cfunc is one compiled function: its code range in the program's
// instruction array ([entry, end), end past the trailing implicit
// return).
type cfunc struct {
	name       string
	entry, end int32
}

// compiled is the per-Program compilation artifact, built once and
// shared read-only by every subsequent run.
type compiled struct {
	name    string
	code    []instr
	funcs   []cfunc
	fnIdx   map[string]int32
	entryFn int32

	nLocals     int
	localIdx    map[string]int32
	globalNames []string
	globalIdx   map[string]int32
	globalInit  []int64
	arrayNames  []string
	arrayIdx    map[string]int32
	arrayInit   [][]int64
	mutexNames  []string
	mutexIdx    map[string]int32
	strs        []string
	strIdx      map[string]int32
	// mutexRank is mutexRanks(mutexNames), shared by every Prepared
	// whose plan injects no new mutex; uncaughtSig[i] is
	// UncaughtSig(strs[i]) — both precomputed so the replay hot path
	// (one Prepare per plan, one signature per failing run) allocates
	// neither.
	mutexRank   []int32
	uncaughtSig []string

	// Fixed indices of the runtime-thrown exception kinds.
	kindDiv0, kindOOB, kindSync int32

	// base is the nil-plan Prepared, built eagerly so uninstrumented
	// runs (trace collection) have zero per-run preparation cost.
	base *Prepared
	// lastPlan memoizes the most recent plan splicing, so Run called in
	// a loop with one Plan value (the replay pattern) prepares once.
	lastPlan atomic.Pointer[planMemo]
}

// planMemo pins the plan map it was built from: while the memo is
// live the map's address cannot be recycled, so pointer equality in
// Prepare identifies the same plan value.
type planMemo struct {
	plan Plan
	pp   *Prepared
}

// ensureCompiled returns the cached compilation, validating and
// compiling on first use. Programs must not be mutated after their
// first run; the compiled form would go stale silently.
func (p *Program) ensureCompiled() (*compiled, error) {
	if c := p.compiled.Load(); c != nil {
		return c, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := compileProgram(p)
	// A concurrent first run may race here; both artifacts are
	// identical, so the last store winning is harmless.
	p.compiled.Store(c)
	return c, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func compileProgram(p *Program) *compiled {
	c := &compiled{
		name:      p.Name,
		fnIdx:     make(map[string]int32, len(p.Funcs)),
		localIdx:  make(map[string]int32),
		globalIdx: make(map[string]int32),
		arrayIdx:  make(map[string]int32),
		mutexIdx:  make(map[string]int32),
		strIdx:    make(map[string]int32),
	}
	// Declared shared state first, in sorted order, so slot assignment
	// is deterministic; op-referenced names intern on first encounter.
	for _, k := range sortedKeys(p.Globals) {
		c.global(k)
		c.globalInit[c.globalIdx[k]] = p.Globals[k]
	}
	for _, k := range sortedKeys(p.Arrays) {
		c.array(k)
		c.arrayInit[c.arrayIdx[k]] = p.Arrays[k]
	}
	c.kindDiv0 = c.str("DivideByZero")
	c.kindOOB = c.str(ExcIndexOutOfRange)
	c.kindSync = c.str(ExcSync)

	names := p.FuncNames()
	for i, n := range names {
		c.fnIdx[n] = int32(i)
	}
	c.funcs = make([]cfunc, len(names))
	for i, n := range names {
		entry := int32(len(c.code))
		c.emitOps(p.Funcs[n].Body)
		c.emit(instr{op: opReturnVoid})
		c.funcs[i] = cfunc{name: n, entry: entry, end: int32(len(c.code))}
	}
	c.entryFn = c.fnIdx[p.Entry]
	c.mutexRank = mutexRanks(c.mutexNames)
	c.uncaughtSig = make([]string, len(c.strs))
	for i, s := range c.strs {
		c.uncaughtSig[i] = UncaughtSig(s)
	}
	c.base = newBasePrepared(p, c)
	return c
}

func (c *compiled) local(name string) int32 {
	if i, ok := c.localIdx[name]; ok {
		return i
	}
	i := int32(c.nLocals)
	c.localIdx[name] = i
	c.nLocals++
	return i
}

// localOpt interns a destination local, with "" meaning "discard".
func (c *compiled) localOpt(name string) int32 {
	if name == "" {
		return -1
	}
	return c.local(name)
}

func (c *compiled) global(name string) int32 {
	if i, ok := c.globalIdx[name]; ok {
		return i
	}
	i := int32(len(c.globalNames))
	c.globalIdx[name] = i
	c.globalNames = append(c.globalNames, name)
	c.globalInit = append(c.globalInit, 0)
	return i
}

func (c *compiled) array(name string) int32 {
	if i, ok := c.arrayIdx[name]; ok {
		return i
	}
	i := int32(len(c.arrayNames))
	c.arrayIdx[name] = i
	c.arrayNames = append(c.arrayNames, name)
	c.arrayInit = append(c.arrayInit, nil)
	return i
}

func (c *compiled) mutex(name string) int32 {
	if i, ok := c.mutexIdx[name]; ok {
		return i
	}
	i := int32(len(c.mutexNames))
	c.mutexIdx[name] = i
	c.mutexNames = append(c.mutexNames, name)
	return i
}

func (c *compiled) str(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.strs))
	c.strIdx[s] = i
	c.strs = append(c.strs, s)
	return i
}

func (c *compiled) catchKind(kind string) int32 {
	if kind == "*" {
		return catchAny
	}
	return c.str(kind)
}

func (c *compiled) expr(e Expr) cexpr {
	if e.IsVar {
		return cexpr{slot: c.local(e.Name)}
	}
	return litExpr(e.Value)
}

func (c *compiled) emit(in instr) int32 {
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *compiled) emitOps(ops []Op) {
	for _, op := range ops {
		c.emitOp(op)
	}
}

func (c *compiled) emitOp(op Op) {
	switch o := op.(type) {
	case Assign:
		c.emit(instr{op: opAssign, a: c.local(o.Dst), x: c.expr(o.Src)})
	case Arith:
		c.emit(instr{op: opArith, aux: uint8(o.Op), a: c.local(o.Dst), x: c.expr(o.A), y: c.expr(o.B)})
	case ReadGlobal:
		c.emit(instr{op: opReadGlobal, a: c.local(o.Dst), b: c.global(o.Var)})
	case WriteGlobal:
		c.emit(instr{op: opWriteGlobal, b: c.global(o.Var), x: c.expr(o.Src)})
	case ArrayRead:
		c.emit(instr{op: opArrayRead, a: c.local(o.Dst), b: c.array(o.Arr), x: c.expr(o.Index)})
	case ArrayWrite:
		c.emit(instr{op: opArrayWrite, b: c.array(o.Arr), x: c.expr(o.Index), y: c.expr(o.Src)})
	case ArrayLen:
		c.emit(instr{op: opArrayLen, a: c.local(o.Dst), b: c.array(o.Arr)})
	case ArrayResize:
		c.emit(instr{op: opArrayResize, b: c.array(o.Arr), x: c.expr(o.Len)})
	case Lock:
		c.emit(instr{op: opLock, b: c.mutex(o.Mu)})
	case Unlock:
		c.emit(instr{op: opUnlock, b: c.mutex(o.Mu)})
	case Sleep:
		c.emit(instr{op: opSleep, x: c.expr(o.Ticks)})
	case WaitUntil:
		c.emit(instr{op: opWaitUntil, b: c.global(o.Var), x: c.expr(o.Val)})
	case Call:
		c.emit(instr{op: opCall, a: c.localOpt(o.Dst), b: c.fnIdx[o.Fn]})
	case Return:
		c.emit(instr{op: opReturn, x: c.expr(o.Val)})
	case ReturnVoid:
		c.emit(instr{op: opReturnVoid})
	case Throw:
		c.emit(instr{op: opThrow, b: c.str(o.Kind)})
	case Try:
		tp := c.emit(instr{op: opTryEnter, c: c.catchKind(o.CatchKind)})
		c.emitOps(o.Body)
		be := c.emit(instr{op: opEndBlock})
		handler := int32(len(c.code))
		c.emitOps(o.Handler)
		he := c.emit(instr{op: opEndBlock})
		cont := int32(len(c.code))
		c.code[tp].b = handler
		c.code[be].b = cont
		c.code[he].b = cont
	case If:
		ip := c.emit(instr{op: opIf, aux: uint8(o.Cond.Op), x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emitOps(o.Then)
		te := c.emit(instr{op: opEndBlock})
		elsePC, ee := int32(-1), int32(-1)
		if len(o.Else) > 0 {
			elsePC = int32(len(c.code))
			c.emitOps(o.Else)
			ee = c.emit(instr{op: opEndBlock})
		}
		cont := int32(len(c.code))
		c.code[ip].b = elsePC
		c.code[ip].c = cont
		c.code[te].b = cont
		if ee >= 0 {
			c.code[ee].b = cont
		}
	case While:
		wp := c.emit(instr{op: opWhileEnter, aux: uint8(o.Cond.Op), x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emitOps(o.Body)
		c.emit(instr{op: opWhileCheck, aux: uint8(o.Cond.Op), b: wp + 1, x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emit(instr{op: opNop}) // the interpreter's loop-exit re-check step
		c.code[wp].b = int32(len(c.code))
	case Spawn:
		c.emit(instr{op: opSpawn, a: c.localOpt(o.Dst), b: c.fnIdx[o.Fn]})
	case Join:
		c.emit(instr{op: opJoin, x: c.expr(o.Thread)})
	case Random:
		c.emit(instr{op: opRandom, a: c.local(o.Dst), x: c.expr(o.N)})
	case ReadClock:
		c.emit(instr{op: opReadClock, a: c.local(o.Dst)})
	case Fail:
		c.emit(instr{op: opFail, b: c.str(o.Sig)})
	case Nop:
		c.emit(instr{op: opNop})
	default:
		// Defer the interpreter's "unknown op" panic to execution time,
		// so an unknown op on an untaken branch stays harmless.
		c.emit(instr{op: opPanic, b: c.str(fmt.Sprintf("sim: unknown op %T", op))})
	}
}

// relocate shifts the pc-target fields of a copied instruction by
// delta. All jump targets are intra-function, so a function body copied
// into an injection stub relocates with a constant offset.
func relocate(in *instr, delta int32) {
	switch in.op {
	case opTryEnter, opEndBlock, opWhileEnter, opWhileCheck:
		in.b += delta
	case opIf:
		if in.b >= 0 {
			in.b += delta
		}
		in.c += delta
	}
}

// slotVal is a pre-resolved injector signal: globals[slot] = val.
type slotVal struct {
	slot int32
	val  int64
}

// injMeta is the compiled end-of-call half of one method's injection.
type injMeta struct {
	injected   bool
	override   *int64
	catchAll   bool
	catchValue int64
	endDelay   trace.Time
	signals    []slotVal
	release    []int32 // injector mutex slots, in sorted-name order
}

// Prepared is a program compiled together with a fault-injection plan:
// the precompute-once handle for replay sweeps. Injection plans are
// applied by instruction splicing — each injected method gets an entry
// stub (waits, sorted lock acquisitions, start delay, then either a
// forced return or a relocated copy of the original body) — so
// individual replays pay nothing for instrumentation.
//
// A Prepared is immutable and safe for concurrent use; Run draws its
// mutable machine state from a pool.
type Prepared struct {
	prog *Program
	c    *compiled

	code    []instr
	entries []int32 // per-function entry pc (stub or base body)
	inj     []injMeta

	nGlobals    int
	globalNames []string
	globalInit  []int64
	nMutexes    int
	mutexNames  []string
	// mutexRank[slot] is the slot's rank in name-sorted order; held-lock
	// sets are kept rank-sorted so access locksets come out name-sorted
	// without per-access sorting.
	mutexRank []int32
}

type slotsByName struct {
	idx   []int32
	names []string
}

func (s *slotsByName) Len() int           { return len(s.idx) }
func (s *slotsByName) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *slotsByName) Less(i, j int) bool { return s.names[s.idx[i]] < s.names[s.idx[j]] }

func mutexRanks(names []string) []int32 {
	idx := make([]int32, len(names))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Sort(&slotsByName{idx: idx, names: names})
	rank := make([]int32, len(names))
	for r, slot := range idx {
		rank[slot] = int32(r)
	}
	return rank
}

func newBasePrepared(p *Program, c *compiled) *Prepared {
	pp := &Prepared{
		prog:        p,
		c:           c,
		code:        c.code,
		entries:     make([]int32, len(c.funcs)),
		inj:         make([]injMeta, len(c.funcs)),
		nGlobals:    len(c.globalNames),
		globalNames: c.globalNames,
		globalInit:  c.globalInit,
		nMutexes:    len(c.mutexNames),
		mutexNames:  c.mutexNames,
		mutexRank:   c.mutexRank,
	}
	for i := range c.funcs {
		pp.entries[i] = c.funcs[i].entry
	}
	return pp
}

// Prepare compiles the program (cached) and splices the plan's
// injections into a Prepared replay handle. An empty or nil plan
// returns the shared base compilation. Methods the program does not
// define are ignored, like the interpreter ignores plan entries that
// are never called.
//
// The most recent splicing is memoized by plan identity, so a Plan
// must not be mutated after it has been used in a run.
func Prepare(p *Program, plan Plan) (*Prepared, error) {
	c, err := p.ensureCompiled()
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return c.base, nil
	}
	if m := c.lastPlan.Load(); m != nil &&
		reflect.ValueOf(m.plan).Pointer() == reflect.ValueOf(plan).Pointer() {
		return m.pp, nil
	}
	active := false
	for fn, inj := range plan {
		if _, ok := c.fnIdx[fn]; ok && !inj.Empty() {
			active = true
			break
		}
	}
	if !active {
		return c.base, nil
	}

	pp := &Prepared{
		prog:        p,
		c:           c,
		code:        append([]instr(nil), c.code...),
		entries:     make([]int32, len(c.funcs)),
		inj:         make([]injMeta, len(c.funcs)),
		globalNames: c.globalNames,
		globalInit:  c.globalInit,
		mutexNames:  c.mutexNames,
	}
	for i := range c.funcs {
		pp.entries[i] = c.funcs[i].entry
	}
	// The plan may reference shared variables (order-enforcement flags)
	// and mutexes (injector locks) the program itself never names;
	// extend the symbol tables copy-on-write.
	var extG, extM map[string]int32
	gslot := func(name string) int32 {
		if i, ok := c.globalIdx[name]; ok {
			return i
		}
		if i, ok := extG[name]; ok {
			return i
		}
		i := int32(len(pp.globalNames))
		if len(pp.globalNames) == len(c.globalNames) {
			// Copy-on-write: leave the shared base tables untouched.
			pp.globalNames = append(make([]string, 0, len(c.globalNames)+4), c.globalNames...)
			pp.globalInit = append(make([]int64, 0, len(c.globalInit)+4), c.globalInit...)
		}
		pp.globalNames = append(pp.globalNames, name)
		pp.globalInit = append(pp.globalInit, 0)
		if extG == nil {
			extG = make(map[string]int32, 4)
		}
		extG[name] = i
		return i
	}
	mslot := func(name string) int32 {
		if i, ok := c.mutexIdx[name]; ok {
			return i
		}
		if i, ok := extM[name]; ok {
			return i
		}
		i := int32(len(pp.mutexNames))
		if len(pp.mutexNames) == len(c.mutexNames) {
			pp.mutexNames = append(make([]string, 0, len(c.mutexNames)+4), c.mutexNames...)
		}
		pp.mutexNames = append(pp.mutexNames, name)
		if extM == nil {
			extM = make(map[string]int32, 4)
		}
		extM[name] = i
		return i
	}

	for _, fn := range sortedKeys(plan) {
		inj := plan[fn]
		fi, ok := c.fnIdx[fn]
		if !ok || inj.Empty() {
			continue
		}
		meta := injMeta{
			injected:   true,
			override:   inj.OverrideReturn,
			catchAll:   inj.CatchExceptions,
			catchValue: inj.CatchValue,
			endDelay:   inj.DelayReturn,
		}
		entry := int32(len(pp.code))
		for _, wb := range inj.WaitBefore {
			pp.code = append(pp.code, instr{op: opWaitUntil, b: gslot(wb.Var), x: litExpr(wb.Val)})
		}
		// Sorted acquisition order keeps simultaneous multi-lock
		// injections deadlock-free (see pushCall).
		locks := inj.GlobalLocks
		if len(locks) > 1 {
			locks = append([]string(nil), locks...)
			sort.Strings(locks)
		}
		for _, mu := range locks {
			ms := mslot(mu)
			pp.code = append(pp.code, instr{op: opLock, b: ms})
			meta.release = append(meta.release, ms)
		}
		if inj.DelayStart > 0 {
			pp.code = append(pp.code, instr{op: opSleep, x: litExpr(int64(inj.DelayStart))})
		}
		switch {
		case inj.ForceReturn != nil:
			pp.code = append(pp.code, instr{op: opReturn, x: litExpr(*inj.ForceReturn)})
		case inj.ForceReturnVoid:
			pp.code = append(pp.code, instr{op: opReturnVoid})
		default:
			f := c.funcs[fi]
			delta := int32(len(pp.code)) - f.entry
			for pc := f.entry; pc < f.end; pc++ {
				in := c.code[pc]
				relocate(&in, delta)
				pp.code = append(pp.code, in)
			}
		}
		for _, sg := range inj.SignalAfter {
			meta.signals = append(meta.signals, slotVal{slot: gslot(sg.Var), val: sg.Val})
		}
		pp.entries[fi] = entry
		pp.inj[fi] = meta
	}
	pp.nGlobals = len(pp.globalNames)
	pp.nMutexes = len(pp.mutexNames)
	if len(pp.mutexNames) == len(c.mutexNames) {
		// No injected lock added a mutex: the slot set (and order) is
		// the compiled program's, so its precomputed ranks apply.
		pp.mutexRank = c.mutexRank
	} else {
		pp.mutexRank = mutexRanks(pp.mutexNames)
	}
	c.lastPlan.Store(&planMemo{plan: plan, pp: pp})
	return pp, nil
}
