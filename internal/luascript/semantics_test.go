package luascript

import (
	"strings"
	"testing"
)

// Table-driven operator precedence checks against reference Lua 5.1
// semantics.
func TestOperatorSemanticsTable(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		// precedence
		{"return 2 + 3 * 4 ^ 2", 50.0},
		{"return (2 + 3) * 4", 20.0},
		{"return 2 * 3 % 4", 2.0},
		{"return 10 - 4 - 3", 3.0},  // left assoc
		{"return 2 ^ 2 ^ 3", 256.0}, // right assoc
		{"return 1 + 2 < 4", true},
		{"return not (1 == 2)", true},
		{"return not 1 == 2", false}, // (not 1) == 2 -> false == 2
		{"return -3 ^ 2", -9.0},
		{"return #seq(1, 2, 3) * 2", 6.0},
		// comparison chains via and/or
		{"return 1 < 2 and 2 < 3", true},
		{"return 1 > 2 or 3 > 2", true},
		// ternary idiom
		{`return (1 < 2) and "yes" or "no"`, "yes"},
		{`return (1 > 2) and "yes" or "no"`, "no"},
		// modulo corner cases (Lua floor-mod)
		{"return 5 % 3", 2.0},
		{"return -5 % 3", 1.0},
		{"return 5 % -3", -1.0},
		// equality without coercion
		{`return "1" == 1`, false},
		{"return true ~= 1", true},
		{"local t = seq() return t == t", true},
		{"return seq() == seq()", false},
	}
	for _, c := range cases {
		want(t, c.src, c.want)
	}
	// Arithmetic takes numbers only: a string is not coerced.
	for _, src := range []string{`return "10" + 5`, `return 2 * "3"`, `return -"1"`} {
		chunk, err := Parse(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newTestInterp().RunChunk(chunk); err == nil ||
			!strings.Contains(err.Error(), "a string value") {
			t.Fatalf("%s: err = %v, want arithmetic on a string refused", src, err)
		}
	}
}

func TestScopingRules(t *testing.T) {
	// A loop variable is fresh per iteration and invisible outside.
	want(t, `
		local n = 0
		for i, v in ipairs(seq(5, 6)) do
			local sq = i * i
			n = n + sq
		end
		return n`, 5.0)
	for _, src := range []string{
		"for _, v in ipairs(seq(1)) do end return v",
		"if true then local y = 1 end return y",
		"local x = x",
	} {
		if _, err := Parse(src, testHosts); err == nil || !strings.Contains(err.Error(), "unknown name") {
			t.Fatalf("Parse(%q) = %v, want an unknown name", src, err)
		}
	}
	// An initialiser sees the outer binding; a local never shadows a
	// builtin or host name.
	want(t, `
		local x = 1
		if true then local x = x + 1 return x end`, 2.0)
	pinRefusals(t, "shadowed host", "shadowed pcall", "shadowing loop variable")
}

func TestClosureCapturesSharedUpvalue(t *testing.T) {
	want(t, `
		local n = 1
		pcall(function() n = n + 1 end)
		pcall(function() n = n * 10 end)
		return n`, 20.0)
}

// TestRecursionDepth: recursion is not expressible, while deep nesting of
// guarded literals runs.
func TestRecursionDepth(t *testing.T) {
	pinRefusals(t, "recursion", "named function", "local function")
	src := "local depth = 0 "
	for i := 0; i < 50; i++ {
		src += "pcall(function() depth = depth + 1 "
	}
	src += strings.Repeat("end) ", 50) + "return depth"
	want(t, src, 50.0)
}

func TestStringEscapesExhaustive(t *testing.T) {
	want(t, `return "\n\t\r"`, "\n\t\r")
	want(t, `return '\\'`, `\`)
	want(t, `return "\""`, `"`)
	want(t, `return '\''`, `'`)
	pinRefusals(t, "escape", "decimal escape")
	if _, err := Parse(`return "\q"`, nil); err == nil {
		t.Fatal("unknown escape must error")
	}
}

func TestNumericLiterals(t *testing.T) {
	want(t, "return 1e3", 1000.0)
	want(t, "return 1E-2", 0.01)
	want(t, "return 3.14159", 3.14159)
	pinRefusals(t, "hex literal")
	if _, err := Parse("return 1e", nil); err == nil {
		t.Fatal("bare exponent must error")
	}
}

func TestTableNilHandling(t *testing.T) {
	// Reading missing keys yields nil; # counts the array part.
	for _, src := range []string{
		"return rec().missing", "return seq(1)[2]", "return seq(1)[0]",
		"return seq(1)[1.5]", "return seq(1)[true]", `return seq(1)["1"]`,
	} {
		want(t, src, nil)
	}
	want(t, "return #seq()", 0.0)
	want(t, `return #seq("a", "b")`, 2.0)
}

func TestTableIntegralFloatKeysUnify(t *testing.T) {
	// t[1] and t[1.0] are the same slot.
	want(t, "return seq(5)[1.0]", 5.0)
	want(t, "return seq(5)[4 / 4]", 5.0)
}

func TestMultipleAssignmentSwap(t *testing.T) {
	want(t, `
		local a, b = 1, 2
		a, b = b, a
		return a * 10 + b`, 21.0)
}

func TestWhitespaceAndCommentsRobustness(t *testing.T) {
	want(t, "\t \r\n  return -- trailing\n 7 \n", 7.0)
	want(t, "-- only a comment", nil)
	pinRefusals(t, "long comment")
}

func TestReturnMustEndBlock(t *testing.T) {
	if _, err := Parse("return 1 local x = 2", nil); err == nil {
		t.Fatal("statements after return must be a syntax error")
	}
}

func TestDeeplyNestedTables(t *testing.T) {
	want(t, `
		local cfg = rec("a", rec("b", rec("c", rec("d", rec("value", 11)))))
		return cfg.a.b.c.d.value`, 11.0)
}

func TestInterpreterReuseIsolation(t *testing.T) {
	// One interpreter runs a chunk twice: locals never outlive a run, and
	// each run gets the whole step budget.
	in := newTestInterp()
	chunk, err := Parse("local n = 0 for _ in ipairs(seq(1, 2, 3)) do n = n + 1 end return n", testHosts)
	if err != nil {
		t.Fatal(err)
	}
	in.maxSteps = 60
	for run := 0; run < 3; run++ {
		vals, err := in.RunChunk(chunk)
		if err != nil || vals[0] != 3.0 {
			t.Fatalf("run %d: vals, err = %v, %v", run, vals, err)
		}
	}
}

// Parse never panics on arbitrary input, and RunChunk never panics on
// whatever parses (FuzzParse explores further).
func TestParserFuzzSafety(t *testing.T) {
	seeds := []string{
		"return 1", "local x = {", "for", "((((", "end end end",
		"\"\\", "[[", "--[[", "x=", "f()g()", "0x", "a.b:c", "#",
		"pcall(", "pcall(function", "for k in ipairs(", "seq(1)[",
	}
	for _, s := range seeds {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", s, r)
				}
			}()
			chunk, err := Parse(s, testHosts)
			if err != nil {
				return
			}
			in := newTestInterp()
			in.maxSteps = 10_000
			_, _ = in.RunChunk(chunk)
		}()
	}
}
