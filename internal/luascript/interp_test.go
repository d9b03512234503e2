package luascript

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// newTestInterp returns an interpreter with two table-building host
// functions, since scripts cannot build tables themselves: seq(...) makes
// an array of its arguments, and rec(k1, v1, k2, v2, ...) a table of named
// fields.
func newTestInterp(opts ...InterpOption) *Interp {
	in := NewInterp(opts...)
	if err := in.Register("seq", func(args []Value) ([]Value, error) {
		t := NewTable()
		for _, a := range args {
			t.Append(a)
		}
		return []Value{t}, nil
	}); err != nil {
		panic(err)
	}
	if err := in.Register("rec", func(args []Value) ([]Value, error) {
		t := NewTable()
		for i := 0; i+1 < len(args); i += 2 {
			t.SetField(args[i].(string), args[i+1])
		}
		return []Value{t}, nil
	}); err != nil {
		panic(err)
	}
	return in
}

// hostNames lists what in has registered beyond the builtins.
func hostNames(in *Interp) []string {
	var hosts []string
	for name := range in.globals {
		if !builtins[name] {
			hosts = append(hosts, name)
		}
	}
	return hosts
}

// runOn parses src against in's host functions and runs it.
func runOn(in *Interp, src string) ([]Value, error) {
	chunk, err := Parse(src, hostNames(in))
	if err != nil {
		return nil, err
	}
	return in.RunChunk(chunk)
}

// run executes src on a fresh test interpreter and returns its first
// return value.
func run(t *testing.T, src string) Value {
	t.Helper()
	vals, err := runOn(newTestInterp(), src)
	if err != nil {
		t.Fatalf("run error: %v\nsource:\n%s", err, src)
	}
	if len(vals) == 0 {
		return nil
	}
	return vals[0]
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	_, err := runOn(newTestInterp(), src)
	if err == nil {
		t.Fatalf("expected error for:\n%s", src)
	}
	return err
}

func want(t *testing.T, src string, expect Value) {
	t.Helper()
	if v := run(t, src); !valuesEqual(v, expect) {
		t.Fatalf("source %q = %v (%T), want %v", src, v, v, expect)
	}
}

func TestArithmetic(t *testing.T) {
	want(t, "return 1 + 2 * 3", 7.0)
	want(t, "return (1 + 2) * 3", 9.0)
	want(t, "return 10 / 4", 2.5)
	want(t, "return 2 ^ 10", 1024.0)
	want(t, "return 2 ^ 3 ^ 2", 512.0) // right associative
	want(t, "return 7 % 3", 1.0)
	want(t, "return -7 % 3", 2.0)  // Lua modulo semantics
	want(t, "return -2 ^ 2", -4.0) // ^ binds tighter than unary -
	want(t, "return 1.5e2", 150.0)
	want(t, "return .5 * 4", 2.0)
}

func TestStringOps(t *testing.T) {
	want(t, `return #"hello"`, 5.0)
	want(t, `return "tab\tnewline\n"`, "tab\tnewline\n")
	want(t, `return "abc" == 'abc'`, true)
	pinRefusals(t, "concatenation")
}

func TestComparisons(t *testing.T) {
	want(t, "return 1 < 2", true)
	want(t, "return 2 <= 2", true)
	want(t, "return 3 > 4", false)
	want(t, "return 3 >= 3", true)
	want(t, `return "abc" < "abd"`, true)
	want(t, "return 1 == 1.0", true)
	want(t, `return 1 == "1"`, false) // no coercion on ==
	want(t, "return nil == false", false)
	want(t, "return 1 ~= 2", true)
}

func TestLogicalOperators(t *testing.T) {
	want(t, "return 1 and 2", 2.0)
	want(t, "return false or 3", 3.0)
	want(t, "return nil and true", nil) // and yields the falsy left operand
	want(t, "return not nil", true)
	want(t, "return not 0", false) // 0 is truthy in Lua
	// Short circuit must not evaluate the right side.
	want(t, `local x = false and error("evaluated") return x`, false)
	want(t, `local x = 1 or error("evaluated") return x`, 1.0)
}

func TestLocalsAndGlobals(t *testing.T) {
	want(t, "local x = 5 x = x + 1 return x", 6.0)
	want(t, "local a, b = 1, 2 return a + b", 3.0)
	// Missing initialisers become nil.
	want(t, "local a, b = 1 return b", nil)
	// Block scoping: an if body's local does not leak, and shadows.
	want(t, `
		local x = 1
		if true then local x = 2 end
		return x`, 1.0)
	// Assignment reaches the declaring scope.
	want(t, `
		local x = 1
		if true then x = 2 end
		return x`, 2.0)
	pinRefusals(t, "global assignment", "global read", "local without initialiser")
}

func TestIfElse(t *testing.T) {
	want(t, `
		local x = 5
		if x > 10 then return "big"
		elseif x > 3 then return "mid"
		else return "small" end`, "mid")
	want(t, `
		if false then return "no" end
		return "fallthrough"`, "fallthrough")
}

func TestGenericForPairsIpairs(t *testing.T) {
	want(t, `
		local sum = 0
		for i, v in ipairs(seq(10, 20, 30)) do sum = sum + i * v end
		return sum`, 10.0+40+90)
	want(t, `
		local n = 0
		for i in ipairs(seq(7, 8)) do n = n + i end
		return n`, 3.0)
	// ipairs stops at the first nil.
	want(t, `
		local count = 0
		for _, v in ipairs(seq(1, nil, 3)) do count = count + 1 end
		return count`, 1.0)
	// A return inside the loop ends the script.
	want(t, `
		for _, v in ipairs(seq(4, 5, 6)) do
			if v == 5 then return v end
		end
		return 0`, 5.0)
	if err := runErr(t, "for _, v in ipairs(5) do end"); !strings.Contains(err.Error(), "table expected") {
		t.Fatalf("err = %v", err)
	}
	pinRefusals(t, "pairs", "ipairs as a value")
}

func TestTables(t *testing.T) {
	want(t, "local t = seq(1, 2, 3) return #t", 3.0)
	want(t, "return seq(7)[1]", 7.0)
	want(t, `return rec("x", 4).x`, 4.0)
	want(t, `return rec("field", 9)["field"]`, 9.0)
	want(t, `return rec("kind", "trail").kind`, "trail")
	want(t, `
		local cfg = rec("sensor", rec("rate", 50, "name", "light"))
		return cfg.sensor.rate`, 50.0)
	pinRefusals(t, "table constructor", "table write", "field write")
}

func TestFunctionsAndClosures(t *testing.T) {
	// A literal closes over the enclosing locals by reference.
	want(t, `
		local n = 0
		pcall(function() n = n + 1 end)
		pcall(function() n = n + 1 end)
		return n`, 2.0)
	want(t, `
		local ok, v = pcall(function() local a = 20 return a + 1 end)
		return v`, 21.0)
	pinRefusals(t, "named function", "local function", "parameters", "literal outside pcall")
}

func TestMultipleReturnValues(t *testing.T) {
	vals, err := runOn(newTestInterp(), "return pcall(function() return 1, 2 end)")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != true || vals[1] != 1.0 || vals[2] != 2.0 {
		t.Fatalf("vals = %v", vals)
	}
	// Only the last call expands.
	want(t, `
		local a, b, c = pcall(function() return 1, 2 end), 10
		return b`, 10.0)
	want(t, `
		local a, b, c = pcall(function() return 1, 2 end), 10
		return c`, nil)
	pinRefusals(t, "varargs")
}

func TestAssertErrorPcall(t *testing.T) {
	want(t, "return assert(42)", 42.0)
	if err := runErr(t, `assert(false, "custom message")`); !strings.Contains(err.Error(), "custom message") {
		t.Fatalf("assert error = %v", err)
	}
	if err := runErr(t, `error("boom")`); !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error() = %v", err)
	}
	want(t, `
		local ok, msg = pcall(function() error("inner") end)
		return ok == false and msg ~= nil`, true)
	want(t, `
		local ok, v = pcall(function() return 99 end)
		return v`, 99.0)
	// pcall also takes a callable and its arguments.
	want(t, `local ok = pcall(error, "x") return ok`, false)
}

func TestComments(t *testing.T) {
	want(t, `
		-- line comment
		local x = 1 -- trailing
		return x`, 1.0)
	pinRefusals(t, "long comment")
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		`return nil + 1`:           "arithmetic",
		`return #5`:                "length",
		`local t = nil return t.x`: "index",
		`local f = 5 f()`:          "call",
		`return 1 < "a"`:           "compare",
		`return -rec()`:            "negate",
		`return seq() < seq()`:     "compare two table values",
	}
	for src, frag := range cases {
		if err := runErr(t, src); !strings.Contains(err.Error(), frag) {
			t.Fatalf("source %q error = %v, want mention of %q", src, err, frag)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"local",
		"if x then",
		"return )",
		"local x = ",
		"1 + 2",
		`local s = "unterminated`,
		"local t = seq(",
		"pcall(function( end)",
		"seq(1).x",
		"local x = 1 x",
		"seq(1,)",
		"seq(1 2)",
		"for k v in ipairs(seq()) do end",
		"if true then else",
		"@",
	}
	for _, src := range bad {
		if _, err := runOn(newTestInterp(), src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	err := runErr(t, "local x = 1\nlocal y = 2\nreturn  nil + 1\n")
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("error type %T", err)
	}
	if le.Line != 3 || le.Col != 13 {
		t.Fatalf("error at %d:%d, want 3:13", le.Line, le.Col)
	}
	if !strings.HasPrefix(err.Error(), "lua: 3:13: ") {
		t.Fatalf("error text = %q", err)
	}
}

func TestHostFunctionsAndWhitelist(t *testing.T) {
	in := NewInterp(WithWhitelist("get_light_readings"))
	if err := in.Register("get_light_readings", func(args []Value) ([]Value, error) {
		return []Value{42.0}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := in.Register("format_disk", func(args []Value) ([]Value, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("off-whitelist registration must fail")
	}
	if err := in.Register("", func(args []Value) ([]Value, error) { return nil, nil }); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := in.Register("get_light_readings", nil); err == nil {
		t.Fatal("nil function must fail")
	}
	vals, err := runOn(in, "return get_light_readings()")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 42.0 {
		t.Fatalf("vals = %v", vals)
	}
	// A host name Parse accepts but the phone never registered reads nil.
	chunk, err := Parse("return get_location(1)", []string{"get_location"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunChunk(chunk); err == nil || !strings.Contains(err.Error(), "call a nil value") {
		t.Fatalf("err = %v", err)
	}
}

func TestHostFunctionArgumentsRoundTrip(t *testing.T) {
	in := NewInterp()
	var got []Value
	if err := in.Register("capture", func(args []Value) ([]Value, error) {
		got = args
		tbl := NewTable()
		tbl.Append(1.0)
		tbl.Append(2.0)
		return []Value{tbl}, nil
	}); err != nil {
		t.Fatal(err)
	}
	vals, err := runOn(in, `
		local t = capture("mic", 44100, true)
		return #t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "mic" || got[1] != 44100.0 || got[2] != true {
		t.Fatalf("host args = %v", got)
	}
	if vals[0] != 2.0 {
		t.Fatalf("table length = %v", vals[0])
	}
}

// spin is a script of nested loops over a 1024-element table: a billion
// iterations, far past any budget.
const spin = `
	local big = seq()
	for _ in ipairs(big) do for _ in ipairs(big) do for _ in ipairs(big) do
	end end end`

func newSpinInterp(opts ...InterpOption) *Interp {
	in := NewInterp(opts...)
	if err := in.Register("seq", func([]Value) ([]Value, error) {
		t := NewTable()
		for i := 0; i < 1024; i++ {
			t.Append(float64(i))
		}
		return []Value{t}, nil
	}); err != nil {
		panic(err)
	}
	return in
}

func TestStepBudget(t *testing.T) {
	in := newSpinInterp()
	in.maxSteps = 10_000
	if _, err := runOn(in, spin); err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	in := newSpinInterp(WithContext(ctx))
	in.maxSteps = 1 << 40
	start := time.Now()
	if _, err := runOn(in, spin); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took too long")
	}
}

// TestPcallReraisesStepBudget: an exhausted step budget is an interpreter
// fault, not a script error a guard may swallow.
func TestPcallReraisesStepBudget(t *testing.T) {
	in := newSpinInterp()
	in.maxSteps = 1_000
	vals, err := runOn(in, "return pcall(function() "+spin+" end)")
	if err == nil || !strings.Contains(err.Error(), "step budget exhausted") {
		t.Fatalf("vals, err = %v, %v", vals, err)
	}
}

// TestPcallReraisesCancellation: a host call that fails because the
// script's context was cancelled fails the script through pcall.
func TestPcallReraisesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := NewInterp(WithContext(ctx))
	if err := in.Register("get_location", func([]Value) ([]Value, error) {
		cancel()
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	vals, err := runOn(in, `
		local ok = pcall(function() return get_location(1) end)
		return ok`)
	if err == nil || !strings.Contains(err.Error(), "script cancelled") {
		t.Fatalf("vals, err = %v, %v", vals, err)
	}
	// A host failure with the context still live stays catchable.
	in = NewInterp()
	if err := in.Register("get_location", func([]Value) ([]Value, error) {
		return nil, errors.New("sensor disabled")
	}); err != nil {
		t.Fatal(err)
	}
	if vals, err := runOn(in, "return pcall(get_location, 1)"); err != nil || vals[0] != false {
		t.Fatalf("vals, err = %v, %v", vals, err)
	}
}

// TestPaperSensingScript runs a script shaped like the paper's Fig. 4
// examples: burst readings per sensor, a location fix, sanity checks, and
// a fallback when a sensor is denied.
func TestPaperSensingScript(t *testing.T) {
	in := NewInterp(WithWhitelist("get_light_readings", "get_location", "get_noise_readings"))
	readCalls := 0
	if err := in.Register("get_light_readings", func(args []Value) ([]Value, error) {
		readCalls++
		if len(args) != 2 {
			t.Fatalf("get_light_readings args = %v", args)
		}
		tbl := NewTable()
		for i := 0; i < int(args[0].(float64)); i++ {
			tbl.Append(300.0 + float64(i))
		}
		return []Value{tbl}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := in.Register("get_location", func(args []Value) ([]Value, error) {
		fixes := NewTable()
		fix := NewTable()
		fix.SetField("lat", 43.0481)
		fix.SetField("lon", -76.1474)
		fixes.Append(fix)
		return []Value{fixes}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := in.Register("get_noise_readings", func(args []Value) ([]Value, error) {
		return nil, errors.New("microphone disabled by user preference")
	}); err != nil {
		t.Fatal(err)
	}
	script := `
		-- sense light in a 5-reading window at 10 Hz
		local readings = get_light_readings(5, 10)
		assert(#readings == 5, "light burst incomplete")
		local sum, peak = 0, 0
		for _, r in ipairs(readings) do
			sum = sum + r
			if r > peak then peak = r end
		end
		local fixes = get_location(1)
		assert(fixes[1].lat > 43 and fixes[1].lon < -76, "fix outside Syracuse")
		-- a denied sensor must not fail the task
		local ok = pcall(function() return get_noise_readings(16, 2000) end)
		if not ok then
			local again = get_light_readings(2, 10)
			return sum / #readings, peak, #again
		end
		return sum / #readings, peak, 0
	`
	vals, err := runOn(in, script)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 302.0 || vals[1] != 304.0 || vals[2] != 2.0 {
		t.Fatalf("vals = %v", vals)
	}
	if readCalls != 2 {
		t.Fatalf("read calls = %d", readCalls)
	}
}

func BenchmarkParseSensingScript(b *testing.B) {
	src := `
		local temps = get_temperature_readings(4, 5000)
		local noise = get_noise_readings(64, 2000)
		assert(#noise == 64, "microphone burst incomplete")
		local sum = 0
		for _, v in ipairs(noise) do sum = sum + v end
		return sum / #noise`
	hosts := []string{"get_temperature_readings", "get_noise_readings"}
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src, hosts); err != nil {
			b.Fatal(err)
		}
	}
}
