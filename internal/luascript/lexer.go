// Package luascript interprets the sensing-task language of §II-A: the
// small subset of Lua in which an application's data-acquisition
// procedure is written and shipped to every participant's phone. The
// Script Interpreter on the mobile frontend runs it, dispatching the
// acquisition functions (get_light_readings(), get_location(), …) to the
// registered providers through a security whitelist.
//
// The language (DESIGN.md "Task language"): `--` line comments; `local`
// with an initialiser and assignment to a declared local; if/elseif/else;
// `for k, v in ipairs(e) do … end`; return and call statements; nil,
// booleans, decimal numbers and short strings; the reads e[i] and e.name;
// the arithmetic, comparison and logical operators, # and unary minus;
// parameterless function literals as pcall's first argument; the
// builtins assert, error, pcall and ipairs; and the host functions.
// Parse refuses everything else with line:col and a reason, and refuses
// any name that is not a local, a builtin or a host function, and a local
// that would shadow one of the latter two. With no named functions, no
// parameters and pcall always the builtin, recursion is not expressible;
// the step budget and context cancellation bound everything else.
package luascript

import (
	"fmt"
	"strconv"
	"strings"
)

// pos is a 1-based source position; col counts bytes.
type pos struct{ line, col int }

func (p pos) at() pos { return p }

// Error is a script error at a source position. An abort (step budget
// exhausted, script cancelled) is an interpreter fault rather than a
// script error: pcall re-raises it instead of returning false.
type Error struct {
	Line, Col int
	Msg       string
	abort     bool
}

// Error implements error.
func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("lua: %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return "lua: " + e.Msg
}

func errAt(p pos, format string, args ...interface{}) *Error {
	return &Error{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

type tokenKind int

const (
	tkEOF tokenKind = iota + 1
	tkNumber
	tkString
	tkName
	tkKeyword
	tkOp
)

// token is one lexical token.
type token struct {
	kind tokenKind
	text string  // source text; decoded text for strings
	num  float64 // value for numbers
	pos  pos
}

func (t token) String() string {
	if t.kind == tkEOF {
		return "<eof>"
	}
	return strconv.Quote(t.text)
}

// keywords are Lua's reserved words. The ones outside the task language
// stay reserved so that Parse can name them when it refuses them.
var keywords = map[string]bool{
	"and": true, "break": true, "do": true, "else": true, "elseif": true,
	"end": true, "false": true, "for": true, "function": true, "goto": true,
	"if": true, "in": true, "local": true, "nil": true, "not": true,
	"or": true, "repeat": true, "return": true, "then": true, "true": true,
	"until": true, "while": true,
}

// refusedOps are Lua tokens outside the task language, longest first,
// with the reason Parse gives for each.
var refusedOps = []struct{ op, why string }{
	{"...", "varargs are not supported"},
	{"..", "string concatenation is not supported"},
	{"[[", "long strings are not supported"},
	{"[=", "long strings are not supported"},
	{":", "method calls are not supported"},
	{"{", "table constructors are not supported"},
	{"}", "table constructors are not supported"},
}

// operators of the task language, longest first.
var operators = []string{
	"==", "~=", "<=", ">=", "+", "-", "*", "/", "%", "^", "#",
	"<", ">", "=", "(", ")", "[", "]", ",", ".",
}

// lexer turns source text into tokens.
type lexer struct {
	src       string
	off       int
	line, col int
}

func (l *lexer) peek(k int) byte {
	if l.off+k >= len(l.src) {
		return 0
	}
	return l.src[l.off+k]
}

func (l *lexer) advance() {
	if l.src[l.off] == '\n' {
		l.line, l.col = l.line+1, 1
	} else {
		l.col++
	}
	l.off++
}

func (l *lexer) here() pos { return pos{l.line, l.col} }

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
func isAlpha(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// skipSpace consumes whitespace and `--` line comments.
func (l *lexer) skipSpace() *Error {
	for l.off < len(l.src) {
		switch b := l.peek(0); {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.advance()
		case b == '-' && l.peek(1) == '-':
			if l.peek(2) == '[' && (l.peek(3) == '[' || l.peek(3) == '=') {
				return errAt(l.here(), "long comments are not supported")
			}
			for l.off < len(l.src) && l.peek(0) != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (token, *Error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	p := l.here()
	if l.off >= len(l.src) {
		return token{kind: tkEOF, pos: p}, nil
	}
	switch b := l.peek(0); {
	case isDigit(b) || (b == '.' && isDigit(l.peek(1))):
		return l.number(p)
	case isAlpha(b):
		start := l.off
		for l.off < len(l.src) && (isAlpha(l.peek(0)) || isDigit(l.peek(0))) {
			l.advance()
		}
		word := l.src[start:l.off]
		if keywords[word] {
			return token{kind: tkKeyword, text: word, pos: p}, nil
		}
		return token{kind: tkName, text: word, pos: p}, nil
	case b == '"' || b == '\'':
		return l.str(p, b)
	}
	rest := l.src[l.off:]
	for _, r := range refusedOps {
		if strings.HasPrefix(rest, r.op) {
			return token{}, errAt(p, "%s", r.why)
		}
	}
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			for range op {
				l.advance()
			}
			return token{kind: tkOp, text: op, pos: p}, nil
		}
	}
	return token{}, errAt(p, "unexpected character %q", l.peek(0))
}

// number lexes a decimal literal: digits, an optional fraction and an
// optional exponent.
func (l *lexer) number(p pos) (token, *Error) {
	if l.peek(0) == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		return token{}, errAt(p, "hex literals are not supported")
	}
	start := l.off
	digits := func() int {
		n := 0
		for ; isDigit(l.peek(0)); n++ {
			l.advance()
		}
		return n
	}
	digits()
	if l.peek(0) == '.' {
		l.advance()
		digits()
	}
	if b := l.peek(0); b == 'e' || b == 'E' {
		l.advance()
		if b := l.peek(0); b == '+' || b == '-' {
			l.advance()
		}
		if digits() == 0 {
			return token{}, errAt(p, "malformed number exponent")
		}
	}
	text := l.src[start:l.off]
	v, err := strconv.ParseFloat(text, 64)
	if b := l.peek(0); err != nil || isAlpha(b) || b == '.' {
		return token{}, errAt(p, "malformed number %q", text)
	}
	return token{kind: tkNumber, text: text, num: v, pos: p}, nil
}

// escapes are the basic string escapes the task language keeps.
var escapes = map[byte]byte{
	'n': '\n', 't': '\t', 'r': '\r', '\\': '\\', '"': '"', '\'': '\'',
}

// str lexes a short string.
func (l *lexer) str(p pos, quote byte) (token, *Error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) || l.peek(0) == '\n' {
			return token{}, errAt(p, "unterminated string")
		}
		b := l.peek(0)
		if b == quote {
			l.advance()
			return token{kind: tkString, text: sb.String(), pos: p}, nil
		}
		if b != '\\' {
			sb.WriteByte(b)
			l.advance()
			continue
		}
		at := l.here()
		l.advance()
		e, ok := escapes[l.peek(0)]
		if !ok {
			return token{}, errAt(at, "invalid escape \\%c", l.peek(0))
		}
		sb.WriteByte(e)
		l.advance()
	}
}
