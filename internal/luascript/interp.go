package luascript

import (
	"context"
	"fmt"
	"math"
	"strconv"
)

// Value is a script value: nil, bool, float64, string, *Table, *Function
// or GoFunc.
type Value interface{}

// GoFunc is a host function callable from scripts. Arguments arrive
// already evaluated; multiple return values are supported.
type GoFunc func(args []Value) ([]Value, error)

// Function is a function literal closed over its scope.
type Function struct {
	body []stmt
	env  *env
}

// Table is what a host function hands a script: an array of values from
// index 1 and named fields. Scripts only read tables.
type Table struct {
	arr    []Value
	fields map[string]Value
}

// NewTable creates an empty table.
func NewTable() *Table { return &Table{} }

// Append adds a value at the end of the array part.
func (t *Table) Append(v Value) { t.arr = append(t.arr, v) }

// SetField stores v under name.
func (t *Table) SetField(name string, v Value) {
	if t.fields == nil {
		t.fields = make(map[string]Value)
	}
	t.fields[name] = v
}

// Get returns t[key]: an array element for an integral key, a field for a
// string, nil otherwise.
func (t *Table) Get(key Value) Value {
	switch k := key.(type) {
	case float64:
		if i := int(k); float64(i) == k && i >= 1 && i <= len(t.arr) {
			return t.arr[i-1]
		}
	case string:
		return t.fields[k]
	}
	return nil
}

// Len returns the array-part length (the # operator).
func (t *Table) Len() int { return len(t.arr) }

// Truthy implements Lua truth: only nil and false are falsy.
func Truthy(v Value) bool {
	b, isBool := v.(bool)
	return v != nil && (!isBool || b)
}

// TypeName returns the Lua type name of v.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Table:
		return "table"
	case *Function, GoFunc:
		return "function"
	default:
		return "userdata"
	}
}

// ToString renders a value the way Lua's tostring does.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		// Integers print without a decimal point, others with %.14g.
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatFloat(x, 'f', -1, 64)
		}
		return strconv.FormatFloat(x, 'g', 14, 64)
	case string:
		return x
	case GoFunc:
		return "function: builtin"
	default:
		return fmt.Sprintf("%s: %p", TypeName(v), x)
	}
}

// valuesEqual implements Lua == (no coercion between types).
func valuesEqual(a, b Value) bool {
	switch a.(type) {
	case nil, bool, float64, string, *Table, *Function:
		return a == b
	}
	return false
}

// stepCap bounds the evaluation steps of one run: the defence against a
// runaway script.
const stepCap = 5_000_000

// env is a lexical scope: a frame of locals with a parent pointer.
type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env {
	return &env{vars: make(map[string]Value), parent: parent}
}

// owner returns the innermost scope declaring name; Parse has checked that
// one does.
func (e *env) owner(name string) *env {
	for s := e; ; s = s.parent {
		if _, ok := s.vars[name]; ok {
			return s
		}
	}
}

// Interp executes parsed chunks. Host functions are registered under a
// security whitelist (the paper's "only allowing a white list of
// unharmful functions to be called").
type Interp struct {
	globals   map[string]Value // builtins and registered host functions
	whitelist map[string]bool  // nil = every registration allowed
	ctx       context.Context
	steps     int
	maxSteps  int
}

// InterpOption configures an interpreter.
type InterpOption func(*Interp)

// WithWhitelist restricts registrable host functions to the given names.
func WithWhitelist(names ...string) InterpOption {
	return func(in *Interp) {
		in.whitelist = make(map[string]bool, len(names))
		for _, n := range names {
			in.whitelist[n] = true
		}
	}
}

// WithContext attaches a context, checked every 1024 steps and after a
// failed host call, so that a long script can be cancelled.
func WithContext(ctx context.Context) InterpOption {
	return func(in *Interp) { in.ctx = ctx }
}

// NewInterp creates an interpreter with the builtins installed.
func NewInterp(opts ...InterpOption) *Interp {
	in := &Interp{maxSteps: stepCap, ctx: context.Background()}
	for _, o := range opts {
		o(in)
	}
	in.globals = map[string]Value{
		"assert": GoFunc(builtinAssert),
		"error":  GoFunc(builtinError),
		"pcall":  GoFunc(in.pcall),
	}
	return in
}

// Register exposes a host function to scripts under the given name. When a
// whitelist is configured the name must be on it.
func (in *Interp) Register(name string, fn GoFunc) error {
	switch {
	case name == "":
		return fmt.Errorf("lua: empty host function name")
	case fn == nil:
		return fmt.Errorf("lua: nil host function %q", name)
	case in.whitelist != nil && !in.whitelist[name]:
		return fmt.Errorf("lua: host function %q not on the whitelist", name)
	}
	in.globals[name] = fn
	return nil
}

// RunChunk executes a parsed chunk and returns its return values.
func (in *Interp) RunChunk(c *Chunk) ([]Value, error) {
	in.steps = 0
	vals, _, err := in.exec(c.body, newEnv(nil))
	return vals, err
}

func builtinAssert(args []Value) ([]Value, error) {
	if len(args) == 0 || !Truthy(args[0]) {
		msg := "assertion failed!"
		if len(args) > 1 {
			msg = ToString(args[1])
		}
		return nil, fmt.Errorf("%s", msg)
	}
	return args, nil
}

func builtinError(args []Value) ([]Value, error) {
	msg := "error"
	if len(args) > 0 {
		msg = ToString(args[0])
	}
	return nil, fmt.Errorf("%s", msg)
}

// pcall calls its first argument and turns a script error into
// false, message. An abort is re-raised: a guard in the script cannot
// outlive the step budget or the task's cancellation.
func (in *Interp) pcall(args []Value) ([]Value, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("bad argument #1 to 'pcall' (value expected)")
	}
	rets, err := in.callValue(pos{}, args[0], args[1:])
	if err != nil {
		if le, ok := err.(*Error); ok && le.abort {
			return nil, le
		}
		return []Value{false, err.Error()}, nil
	}
	return append([]Value{true}, rets...), nil
}

func abortAt(p pos, format string, args ...interface{}) error {
	e := errAt(p, format, args...)
	e.abort = true
	return e
}

func (in *Interp) tick(p pos) error {
	in.steps++
	if in.steps > in.maxSteps {
		return abortAt(p, "step budget exhausted (%d steps)", in.maxSteps)
	}
	if in.steps%1024 == 0 {
		if err := in.ctx.Err(); err != nil {
			return abortAt(p, "script cancelled: %v", err)
		}
	}
	return nil
}

// exec runs a block; returned reports whether a return statement ended it.
func (in *Interp) exec(body []stmt, sc *env) (vals []Value, returned bool, err error) {
	for _, s := range body {
		if err := in.tick(s.at()); err != nil {
			return nil, false, err
		}
		switch st := s.(type) {
		case *assignStmt:
			vals, err := in.evalList(st.exprs, sc, len(st.names))
			if err != nil {
				return nil, false, err
			}
			for i, name := range st.names {
				owner := sc
				if !st.local {
					owner = sc.owner(name)
				}
				owner.vars[name] = vals[i]
			}
		case *callStmt:
			if _, err := in.call(st.call, sc); err != nil {
				return nil, false, err
			}
		case *ifStmt:
			cond, err := in.eval(st.cond, sc)
			if err != nil {
				return nil, false, err
			}
			branch := st.elseBody
			if Truthy(cond) {
				branch = st.thenBody
			}
			if branch != nil {
				if vals, returned, err := in.exec(branch, newEnv(sc)); returned || err != nil {
					return vals, returned, err
				}
			}
		case *forStmt:
			if vals, returned, err := in.execFor(st, sc); returned || err != nil {
				return vals, returned, err
			}
		case *returnStmt:
			vals, err := in.evalMulti(st.exprs, sc)
			return vals, err == nil, err
		}
	}
	return nil, false, nil
}

// execFor runs `for key, val in ipairs(seq)`: seq[1], seq[2], … up to the
// first nil, each iteration in a fresh scope.
func (in *Interp) execFor(st *forStmt, sc *env) ([]Value, bool, error) {
	seq, err := in.eval(st.seq, sc)
	if err != nil {
		return nil, false, err
	}
	t, ok := seq.(*Table)
	if !ok {
		return nil, false, errAt(st.pos, "bad argument #1 to 'ipairs' (table expected, got %s)", TypeName(seq))
	}
	for i := 1; ; i++ {
		if err := in.tick(st.pos); err != nil {
			return nil, false, err
		}
		v := t.Get(float64(i))
		if v == nil {
			return nil, false, nil
		}
		it := newEnv(sc)
		it.vars[st.key] = float64(i)
		if st.val != "" {
			it.vars[st.val] = v
		}
		if vals, returned, err := in.exec(st.body, it); returned || err != nil {
			return vals, returned, err
		}
	}
}

// evalList evaluates an expression list adjusted to want values.
func (in *Interp) evalList(exprs []expr, sc *env, want int) ([]Value, error) {
	vals, err := in.evalMulti(exprs, sc)
	if err != nil {
		return nil, err
	}
	for len(vals) < want {
		vals = append(vals, nil)
	}
	return vals[:want], nil
}

// evalMulti evaluates an expression list, expanding a trailing call's
// full result list.
func (in *Interp) evalMulti(exprs []expr, sc *env) ([]Value, error) {
	var out []Value
	for i, e := range exprs {
		if c, ok := e.(*callExpr); ok && i == len(exprs)-1 {
			rets, err := in.call(c, sc)
			if err != nil {
				return nil, err
			}
			return append(out, rets...), nil
		}
		v, err := in.eval(e, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (in *Interp) lookup(sc *env, name string) Value {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v
		}
	}
	return in.globals[name]
}

func (in *Interp) eval(e expr, sc *env) (Value, error) {
	if err := in.tick(e.at()); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *constExpr:
		return x.val, nil
	case *nameExpr:
		return in.lookup(sc, x.name), nil
	case *indexExpr:
		obj, err := in.eval(x.obj, sc)
		if err != nil {
			return nil, err
		}
		tbl, ok := obj.(*Table)
		if !ok {
			return nil, errAt(x.pos, "attempt to index a %s value", TypeName(obj))
		}
		key, err := in.eval(x.key, sc)
		if err != nil {
			return nil, err
		}
		return tbl.Get(key), nil
	case *callExpr:
		rets, err := in.call(x, sc)
		if err != nil || len(rets) == 0 {
			return nil, err
		}
		return rets[0], nil
	case *funcExpr:
		return &Function{body: x.body, env: sc}, nil
	case *unExpr:
		return in.evalUnary(x, sc)
	default:
		return in.evalBinary(x.(*binExpr), sc)
	}
}

func (in *Interp) evalUnary(x *unExpr, sc *env) (Value, error) {
	v, err := in.eval(x.e, sc)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "not":
		return !Truthy(v), nil
	case "-":
		n, ok := v.(float64)
		if !ok {
			return nil, errAt(x.pos, "attempt to negate a %s value", TypeName(v))
		}
		return -n, nil
	}
	switch t := v.(type) {
	case string:
		return float64(len(t)), nil
	case *Table:
		return float64(t.Len()), nil
	}
	return nil, errAt(x.pos, "attempt to get length of a %s value", TypeName(v))
}

func (in *Interp) evalBinary(x *binExpr, sc *env) (Value, error) {
	l, err := in.eval(x.l, sc)
	if err != nil {
		return nil, err
	}
	// and/or short-circuit.
	switch {
	case x.op == "and" && !Truthy(l), x.op == "or" && Truthy(l):
		return l, nil
	case x.op == "and" || x.op == "or":
		return in.eval(x.r, sc)
	}
	r, err := in.eval(x.r, sc)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "==":
		return valuesEqual(l, r), nil
	case "~=":
		return !valuesEqual(l, r), nil
	case "<", "<=", ">", ">=":
		return compareValues(x.pos, x.op, l, r)
	}
	ln, lok := l.(float64)
	rn, rok := r.(float64)
	if !lok || !rok {
		bad := l
		if lok {
			bad = r
		}
		return nil, errAt(x.pos, "attempt to perform arithmetic on a %s value", TypeName(bad))
	}
	switch x.op {
	case "+":
		return ln + rn, nil
	case "-":
		return ln - rn, nil
	case "*":
		return ln * rn, nil
	case "/":
		return ln / rn, nil
	case "%":
		// Lua modulo: the result has the sign of the divisor.
		return ln - math.Floor(ln/rn)*rn, nil
	default: // ^
		return math.Pow(ln, rn), nil
	}
}

func compareValues(p pos, op string, l, r Value) (Value, error) {
	switch x := l.(type) {
	case float64:
		if y, ok := r.(float64); ok {
			return ordered(op, x, y), nil
		}
	case string:
		if y, ok := r.(string); ok {
			return ordered(op, x, y), nil
		}
	}
	if TypeName(l) == TypeName(r) {
		return nil, errAt(p, "attempt to compare two %s values", TypeName(l))
	}
	return nil, errAt(p, "attempt to compare %s with %s", TypeName(l), TypeName(r))
}

func ordered[T float64 | string](op string, x, y T) bool {
	switch op {
	case "<":
		return x < y
	case "<=":
		return x <= y
	case ">":
		return x > y
	}
	return x >= y
}

func (in *Interp) call(c *callExpr, sc *env) ([]Value, error) {
	if err := in.tick(c.pos); err != nil { // the callee read
		return nil, err
	}
	fn := in.lookup(sc, c.name)
	args, err := in.evalMulti(c.args, sc)
	if err != nil {
		return nil, err
	}
	return in.callValue(c.pos, fn, args)
}

// callValue invokes a callable value with already-evaluated arguments. A
// host call that fails once the context is done is a cancellation.
func (in *Interp) callValue(p pos, fn Value, args []Value) ([]Value, error) {
	switch f := fn.(type) {
	case GoFunc:
		rets, err := f(args)
		if err == nil {
			return rets, nil
		}
		if le, ok := err.(*Error); ok {
			return nil, le
		}
		if cerr := in.ctx.Err(); cerr != nil {
			return nil, abortAt(p, "script cancelled: %v", cerr)
		}
		return nil, errAt(p, "%v", err)
	case *Function:
		vals, _, err := in.exec(f.body, newEnv(f.env))
		return vals, err
	default:
		return nil, errAt(p, "attempt to call a %s value", TypeName(fn))
	}
}
