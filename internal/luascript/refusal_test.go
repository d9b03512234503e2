package luascript

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"sor/internal/device"
)

// testHosts are the host names the refusal and fuzz tests parse against.
var testHosts = []string{"seq", "rec", "get_location", "get_light_readings"}

// refusal pins how Parse refuses one construct outside the task language.
type refusal struct {
	name      string
	src       string
	line, col int
	why       string // a substring of the message
}

var refusals = []refusal{
	{"while", "local i = 0\nwhile i < 3 do i = i + 1 end", 2, 1, "while loops are not supported"},
	{"break", "for _, v in ipairs(seq(1)) do break end", 1, 31, "break is not supported"},
	{"repeat", "repeat local x = 1 until x", 1, 1, "repeat loops are not supported"},
	{"numeric for", "local s = 0\nfor i = 1, 3 do s = s + i end", 2, 1, "numeric for is not supported"},
	{"do", "do local x = 1 end", 1, 1, "do blocks are not supported"},
	{"goto", "goto done", 1, 1, "goto is not supported"},
	{"named function", "function f() return 1 end", 1, 1, "named functions are not supported"},
	{"local function", "local function f() end", 1, 7, "named functions are not supported"},
	{"method definition", "local obj = rec()\nfunction obj:get() end", 2, 1, "named functions are not supported"},
	{"parameters", "pcall(function(x) return x end, 1)", 1, 16, "function parameters are not supported"},
	{"literal outside pcall", "local f = function() end", 1, 11, "only allowed as pcall's first argument"},
	{"literal after pcall's first argument", "pcall(error, function() end)", 1, 14, "only allowed as pcall's first argument"},
	{"recursion", "local f = pcall(function() return f() end)", 1, 35, `unknown name "f"`},
	{"shadowed pcall", "local pcall = assert local f = 0 f = pcall(function() f() end) f()", 1, 7,
		`local "pcall" would shadow a builtin or host function`},
	{"shadowed host", "local seq = 5 return seq", 1, 7, `local "seq" would shadow`},
	{"shadowing loop variable", "for _, ipairs in ipairs(seq(1)) do end", 1, 8, `local "ipairs" would shadow`},
	{"varargs", "return ...", 1, 8, "varargs are not supported"},
	{"method call", "local t = seq(1)\nreturn t:len()", 2, 9, "method calls are not supported"},
	{"table constructor", "local t = {1, 2}", 1, 11, "table constructors are not supported"},
	{"table call", "seq {1, 2}", 1, 5, "table constructors are not supported"},
	{"string call", `get_light_readings "x"`, 1, 20, "call arguments must be in parentheses"},
	{"table write", "local t = seq(1)\nt[1] = 2", 2, 1, "table writes are not supported"},
	{"field write", "local t = rec(\"x\", 1)\nt.x = 2", 2, 1, "table writes are not supported"},
	{"global assignment", "x = 1", 1, 1, `assignment to "x", which is not a local`},
	{"builtin assignment", "pcall = 1", 1, 1, `assignment to "pcall", which is not a local`},
	{"global read", "return y + 1", 1, 8, `unknown name "y"`},
	{"local without initialiser", "local x", 1, 8, "local needs an initialiser"},
	{"concatenation", `return "a" .. "b"`, 1, 12, "string concatenation is not supported"},
	{"long string", "return [[raw]]", 1, 8, "long strings are not supported"},
	{"long comment", "--[[ note ]]\nreturn 1", 1, 1, "long comments are not supported"},
	{"hex literal", "return 0x10", 1, 8, "hex literals are not supported"},
	{"escape", `return "\a"`, 1, 9, `invalid escape \a`},
	{"decimal escape", `return "\65"`, 1, 9, `invalid escape \6`},
	{"number run into a name", "local x = 0pcall(error)", 1, 11, `malformed number "0"`},
	{"semicolon", "local x = 1; return x", 1, 12, "unexpected character ';'"},
	{"pairs", "for k, v in pairs(seq(1)) do end", 1, 13, "for iterates only ipairs(t)"},
	{"custom iterator", "for i in range(5) do end", 1, 10, "for iterates only ipairs(t)"},
	{"ipairs as a value", "local f = ipairs", 1, 11, "ipairs is only allowed as for"},
	{"print", `print("hello")`, 1, 1, `unknown name "print"`},
	{"select", `return select("#", 1, 2)`, 1, 8, `unknown name "select"`},
	{"type", "return type(1)", 1, 8, `unknown name "type"`},
	{"tostring", "return tostring(1)", 1, 8, `unknown name "tostring"`},
	{"tonumber", `return tonumber("42")`, 1, 8, `unknown name "tonumber"`},
	{"math library", "return math.floor(3.7)", 1, 8, `unknown name "math"`},
	{"table library", "local t = seq()\ntable.insert(t, 1)", 2, 1, `unknown name "table"`},
	{"string.format", `return string.format("%05d", 42)`, 1, 8, `unknown name "string"`},
	{"string.sub", `return string.sub("hello", -3)`, 1, 8, `unknown name "string"`},
	{"string.match", `return string.match("temp=42.5C", "%d+%.%d+")`, 1, 8, `unknown name "string"`},
	{"string.find", `return string.find("sensing", "s(i)ng")`, 1, 8, `unknown name "string"`},
	{"string.gmatch", `local it = string.gmatch("a b", "%a+")`, 1, 12, `unknown name "string"`},
	{"string.gsub", `local s = string.gsub("a-b", "%-", "+")`, 1, 11, `unknown name "string"`},
	{"sensing script with patterns",
		"local readings = get_light_readings(5, 10)\nlocal label = string.format(\"%d readings\", #readings)\nreturn label",
		2, 15, `unknown name "string"`},
	{"nesting", "return " + strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300), 1, 207, "nesting deeper than 200"},
	{"operator chain", "return 1" + strings.Repeat(" + 1", 300), 1, 800, "nesting deeper than 200"},
	{"index chain", "return seq(1)" + strings.Repeat("[1]", 300), 1, 606, "nesting deeper than 200"},
	{"typo in a host name", "local t = get_light_reading(4, 5000)", 1, 11, `unknown name "get_light_reading"`},
}

func checkRefusal(t *testing.T, r refusal) {
	t.Helper()
	_, err := Parse(r.src, testHosts)
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("%s: Parse(%q) = %v, want a refusal", r.name, r.src, err)
	}
	if le.Line != r.line || le.Col != r.col || !strings.Contains(le.Msg, r.why) {
		t.Fatalf("%s: refused at %d:%d with %q, want %d:%d with %q",
			r.name, le.Line, le.Col, le.Msg, r.line, r.col, r.why)
	}
}

// pinRefusals checks the named rows of the refusal table.
func pinRefusals(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		found := false
		for _, r := range refusals {
			if r.name == name {
				checkRefusal(t, r)
				found = true
			}
		}
		if !found {
			t.Fatalf("no refusal row %q", name)
		}
	}
}

// TestRefusedConstructs pins the refusal of every construct outside the
// task language: position and reason.
func TestRefusedConstructs(t *testing.T) {
	for _, r := range refusals {
		t.Run(r.name, func(t *testing.T) { checkRefusal(t, r) })
	}
}

// The tests below exercised constructs the task language no longer has;
// each now pins the refusal of the construct it covered.

func TestWhileAndBreak(t *testing.T) { pinRefusals(t, "while", "break") }
func TestRepeatUntil(t *testing.T)   { pinRefusals(t, "repeat") }
func TestNumericFor(t *testing.T)    { pinRefusals(t, "numeric for") }
func TestGenericForCustomIterator(t *testing.T) {
	pinRefusals(t, "custom iterator")
}
func TestMethodCallSugar(t *testing.T)     { pinRefusals(t, "method call", "method definition") }
func TestMethodOnNestedTable(t *testing.T) { pinRefusals(t, "method call") }
func TestCallStringSugar(t *testing.T)     { pinRefusals(t, "string call", "table call") }
func TestLongStringCarriesBrackets(t *testing.T) {
	pinRefusals(t, "long string")
}
func TestPrintCapture(t *testing.T)        { pinRefusals(t, "print") }
func TestSetGlobalAndGlobal(t *testing.T)  { pinRefusals(t, "global assignment", "global read") }
func TestSelect(t *testing.T)              { pinRefusals(t, "select") }
func TestTypeAndConversions(t *testing.T)  { pinRefusals(t, "type", "tostring", "tonumber") }
func TestMathLib(t *testing.T)             { pinRefusals(t, "math library") }
func TestTableLib(t *testing.T)            { pinRefusals(t, "table library") }
func TestStringLib(t *testing.T)           { pinRefusals(t, "string.format", "string.sub") }
func TestNormIndex(t *testing.T)           { pinRefusals(t, "string.sub") }
func TestStringMatchBasics(t *testing.T)   { pinRefusals(t, "string.match") }
func TestStringMatchCaptures(t *testing.T) { pinRefusals(t, "string.match") }
func TestStringMatchClasses(t *testing.T)  { pinRefusals(t, "string.match") }
func TestStringMatchSets(t *testing.T)     { pinRefusals(t, "string.match") }
func TestStringMatchBackReference(t *testing.T) {
	pinRefusals(t, "string.match")
}
func TestStringMatchQuantifiers(t *testing.T) { pinRefusals(t, "string.match") }
func TestStringMatchComplementClasses(t *testing.T) {
	pinRefusals(t, "string.match")
}
func TestStringFindWithPatterns(t *testing.T) { pinRefusals(t, "string.find") }
func TestPatternUnsupportedFeaturesRejected(t *testing.T) {
	pinRefusals(t, "string.find")
}
func TestPatternMalformedRejected(t *testing.T) { pinRefusals(t, "string.match") }
func TestStringGmatch(t *testing.T)             { pinRefusals(t, "string.gmatch") }
func TestStringGsub(t *testing.T)               { pinRefusals(t, "string.gsub") }
func TestGsubErrors(t *testing.T)               { pinRefusals(t, "string.gsub") }
func TestSensingScriptWithPatterns(t *testing.T) {
	pinRefusals(t, "sensing script with patterns")
}

// shippedScripts extracts the sensing scripts the repository ships (the
// `const …Script` raw literals) from their source files; the packages
// that hold them import this one, so tests cannot import them.
func shippedScripts(t testing.TB) map[string]string {
	t.Helper()
	lit := regexp.MustCompile("(?m)^const (\\w+Script) = `([^`]*)`")
	out := make(map[string]string)
	for _, file := range []string{"../fieldtest/fieldtest.go", "../chaos/fixture.go", "../fleetsim/fleetsim.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lit.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = m[2]
		}
	}
	if len(out) != 4 {
		t.Fatalf("found scripts %v, want TrailScript, CoffeeScript, soakScript and fleetScript", out)
	}
	return out
}

// excluded scans src as Lua would, skipping short strings and line
// comments, and returns the first token outside the task language: while,
// repeat, goto, .., :, ..., [[, or function not directly inside pcall(.
func excluded(src string) string {
	var prev [2]string
	for i := 0; i < len(src); {
		c := src[i]
		var tok string
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
			continue
		case strings.HasPrefix(src[i:], "--"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(src) && src[j] != c && src[j] != '\n' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			tok, i = "<string>", j+1
		case isAlpha(c):
			j := i
			for j < len(src) && (isAlpha(src[j]) || isDigit(src[j])) {
				j++
			}
			tok, i = src[i:j], j
		case isDigit(c):
			j := i
			for j < len(src) && (isAlpha(src[j]) || isDigit(src[j]) || src[j] == '.' ||
				((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			tok, i = "<number>", j
		default:
			tok = src[i : i+1]
			for _, op := range []string{"...", "..", "[[", "==", "~=", "<=", ">="} {
				if strings.HasPrefix(src[i:], op) {
					tok = op
					break
				}
			}
			i += len(tok)
		}
		switch tok {
		case "while", "repeat", "goto", "..", ":", "...", "[[":
			return tok
		case "function":
			if prev != [2]string{"pcall", "("} {
				return "function outside pcall("
			}
		}
		prev = [2]string{prev[1], tok}
	}
	return ""
}

// FuzzParse: Parse never panics, refuses with a position, never accepts an
// excluded token, and whatever it accepts runs without panicking.
func FuzzParse(f *testing.F) {
	for _, src := range shippedScripts(f) {
		f.Add(src)
	}
	for _, r := range refusals {
		f.Add(r.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		chunk, err := Parse(src, testHosts)
		if err != nil {
			var le *Error
			if !errors.As(err, &le) || le.Line < 1 || le.Col < 1 {
				t.Fatalf("Parse(%q) refused without a position: %v", src, err)
			}
			return
		}
		if tok := excluded(src); tok != "" {
			t.Fatalf("Parse accepted %q, which contains %s", src, tok)
		}
		in := newTestInterp()
		in.maxSteps = 10_000
		_, _ = in.RunChunk(chunk)
	})
}

// TestShippedScriptsParse: every script the repository ships is in the
// task language.
func TestShippedScriptsParse(t *testing.T) {
	for name, src := range shippedScripts(t) {
		if _, err := Parse(src, device.ScriptFunctions); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tok := excluded(src); tok != "" {
			t.Errorf("%s contains %s", name, tok)
		}
	}
}
