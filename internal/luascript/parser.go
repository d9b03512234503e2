package luascript

import "slices"

// ---- Syntax tree ----

// expr and stmt nodes embed their source position.
type expr interface{ at() pos }
type stmt interface{ at() pos }

// constExpr is a literal: nil, true, false, a number or a string.
type constExpr struct {
	pos
	val Value
}

// nameExpr reads a local, a builtin or a host function.
type nameExpr struct {
	pos
	name string
}

// indexExpr is obj[key] (and obj.name, desugared).
type indexExpr struct {
	pos
	obj, key expr
}

// callExpr calls what a name holds.
type callExpr struct {
	pos
	name string
	args []expr
}

// funcExpr is a parameterless function literal (pcall's first argument).
type funcExpr struct {
	pos
	body []stmt
}

type unExpr struct {
	pos
	op string
	e  expr
}

type binExpr struct {
	pos
	op   string
	l, r expr
}

// assignStmt declares locals (local) or assigns declared ones.
type assignStmt struct {
	pos
	local bool
	names []string
	exprs []expr
}

type callStmt struct {
	pos
	call *callExpr
}

// ifStmt holds an elseif chain as a nested ifStmt in elseBody.
type ifStmt struct {
	pos
	cond     expr
	thenBody []stmt
	elseBody []stmt
}

// forStmt is `for key, val in ipairs(seq) do body end` (val optional).
type forStmt struct {
	pos
	key, val string
	seq      expr
	body     []stmt
}

type returnStmt struct {
	pos
	exprs []expr
}

// ---- Parser ----

// Chunk is a parsed script.
type Chunk struct{ body []stmt }

// builtins are the library functions a script may call; ipairs is not a
// value but part of the for statement.
var builtins = map[string]bool{"assert": true, "error": true, "pcall": true}

// refusedKeywords are the statements of Lua outside the task language.
var refusedKeywords = map[string]string{
	"while":    "while loops are not supported",
	"repeat":   "repeat loops are not supported",
	"break":    "break is not supported",
	"do":       "do blocks are not supported",
	"goto":     "goto is not supported",
	"function": "named functions are not supported",
}

// parser is a recursive-descent parser with precedence climbing for binary
// operators. It resolves every name as it goes: locals holds the names
// declared in the enclosing blocks, innermost last.
type parser struct {
	lex    *lexer
	toks   []token // lexed so far; toks[i] is the current token
	i      int
	lexErr *Error // a token outside the language; the stream ends there
	locals []string
	hosts  []string
	depth  int
}

// maxDepth bounds the parser's recursion: each block, operand and
// parenthesis counts one level while it is parsed, and so does each operator
// or index that wraps an expression one level deeper. An early operand of a
// chain ends up below the chain's later wraps, so a syntax tree may grow
// past maxDepth, but not past maxDepth² levels: that bounds the
// interpreter's recursion on any input.
const maxDepth = 200

// nest enters one level of nesting; the caller restores p.depth.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxDepth {
		return errAt(p.cur().pos, "nesting deeper than %d", maxDepth)
	}
	return nil
}

// Parse checks src against the task language and returns its syntax tree.
// hosts are the host function names a script may call. The error, if
// any, is an *Error naming the first refused construct's position.
func Parse(src string, hosts []string) (*Chunk, error) {
	p := &parser{lex: &lexer{src: src, line: 1, col: 1}, hosts: hosts}
	body, err := p.block()
	if t := p.cur(); err == nil && t.kind != tkEOF {
		err = errAt(t.pos, "unexpected %s", t)
	}
	// Lexing runs at most one token ahead of parsing, so a parser that met
	// a token outside the language stopped there: that is the refusal.
	if p.lexErr != nil {
		err = p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return &Chunk{body: body}, nil
}

// tok returns the token k ahead of the current one, lexing on demand. A
// lexical refusal ends the stream: the parser sees EOF from there on.
func (p *parser) tok(k int) token {
	for len(p.toks) <= p.i+k {
		t := token{kind: tkEOF, pos: p.lex.here()}
		if p.lexErr == nil {
			var err *Error
			if t, err = p.lex.next(); err != nil {
				p.lexErr, t = err, token{kind: tkEOF, pos: p.lex.here()}
			}
		}
		p.toks = append(p.toks, t)
	}
	return p.toks[p.i+k]
}

func (p *parser) cur() token { return p.tok(0) }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tkEOF {
		p.i++
	}
	return t
}

func (t token) isOp(op string) bool { return t.kind == tkOp && t.text == op }
func (t token) isKw(kw string) bool { return t.kind == tkKeyword && t.text == kw }

func (p *parser) isOp(op string) bool { return p.cur().isOp(op) }
func (p *parser) isKw(kw string) bool { return p.cur().isKw(kw) }

func (p *parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return errAt(p.cur().pos, "expected %q, found %s", op, p.cur())
	}
	return nil
}

func (p *parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return errAt(p.cur().pos, "expected %q, found %s", kw, p.cur())
	}
	p.advance()
	return nil
}

func (p *parser) expectName() (string, error) {
	t := p.cur()
	if t.kind != tkName {
		return "", errAt(t.pos, "expected name, found %s", t)
	}
	p.advance()
	return t.text, nil
}

// declName parses the name of a new local. A local may not shadow a builtin
// or a host function, so pcall always means the builtin: its function
// literal runs once and never becomes a value a script can call again.
func (p *parser) declName() (string, error) {
	t := p.cur()
	n, err := p.expectName()
	if err == nil && (builtins[n] || n == "ipairs" || slices.Contains(p.hosts, n)) {
		err = errAt(t.pos, "local %q would shadow a builtin or host function", n)
	}
	return n, err
}

func (p *parser) isLocal(name string) bool {
	for i := len(p.locals) - 1; i >= 0; i-- {
		if p.locals[i] == name {
			return true
		}
	}
	return false
}

// resolve refuses a name that is not a local, a builtin or a host
// function.
func (p *parser) resolve(t token) error {
	switch {
	case p.isLocal(t.text) || builtins[t.text] || slices.Contains(p.hosts, t.text):
		return nil
	case t.text == "ipairs":
		return errAt(t.pos, "ipairs is only allowed as for k, v in ipairs(t)")
	}
	return errAt(t.pos, "unknown name %q: not a local, builtin or host function", t.text)
}

// blockEnds reports whether the current token closes a block.
func (p *parser) blockEnds() bool {
	t := p.cur()
	return t.kind == tkEOF || (t.kind == tkKeyword &&
		(t.text == "end" || t.text == "else" || t.text == "elseif"))
}

// block parses statements up to a block end in a new scope holding names.
func (p *parser) block(names ...string) ([]stmt, error) {
	defer func(depth int) { p.depth = depth }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	mark := len(p.locals)
	p.locals = append(p.locals, names...)
	defer func() { p.locals = p.locals[:mark] }()
	var out []stmt
	for !p.blockEnds() {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if _, ok := s.(*returnStmt); ok && !p.blockEnds() {
			return nil, errAt(p.cur().pos, "return must be the last statement of its block")
		}
	}
	return out, nil
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	if t.kind == tkKeyword {
		switch t.text {
		case "local":
			return p.localStatement()
		case "if":
			return p.ifStatement()
		case "for":
			return p.forStatement()
		case "return":
			p.advance()
			if p.blockEnds() {
				return &returnStmt{pos: t.pos}, nil
			}
			exprs, err := p.exprList()
			return &returnStmt{pos: t.pos, exprs: exprs}, err
		}
		if why, ok := refusedKeywords[t.text]; ok {
			return nil, errAt(t.pos, "%s", why)
		}
	}
	if next := p.tok(1); t.kind == tkName && next.kind == tkOp && (next.text == "=" || next.text == ",") {
		return p.assignStatement()
	}
	e, err := p.suffixedExpr()
	if err != nil {
		return nil, err
	}
	if _, ok := e.(*indexExpr); ok && p.isOp("=") {
		return nil, errAt(t.pos, "table writes are not supported")
	}
	call, ok := e.(*callExpr)
	if !ok {
		return nil, errAt(t.pos, "expression is not a statement")
	}
	return &callStmt{pos: t.pos, call: call}, nil
}

func (p *parser) nameList() ([]string, error) {
	var names []string
	for {
		n, err := p.declName()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.acceptOp(",") {
			return names, nil
		}
	}
}

func (p *parser) localStatement() (stmt, error) {
	at := p.advance().pos // local
	if p.isKw("function") {
		return nil, errAt(p.cur().pos, "named functions are not supported")
	}
	names, err := p.nameList()
	if err != nil {
		return nil, err
	}
	if !p.acceptOp("=") {
		return nil, errAt(p.cur().pos, "local needs an initialiser")
	}
	exprs, err := p.exprList()
	if err != nil {
		return nil, err
	}
	// The names come into scope after their initialisers.
	p.locals = append(p.locals, names...)
	return &assignStmt{pos: at, local: true, names: names, exprs: exprs}, nil
}

func (p *parser) assignStatement() (stmt, error) {
	at := p.cur().pos
	var names []string
	for {
		t := p.cur()
		if t.kind != tkName {
			return nil, errAt(t.pos, "expected name, found %s", t)
		}
		if !p.isLocal(t.text) {
			return nil, errAt(t.pos, "assignment to %q, which is not a local (globals are not supported)", t.text)
		}
		p.advance()
		names = append(names, t.text)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	exprs, err := p.exprList()
	if err != nil {
		return nil, err
	}
	return &assignStmt{pos: at, names: names, exprs: exprs}, nil
}

func (p *parser) ifStatement() (stmt, error) {
	at := p.advance().pos // if / elseif
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	thenBody, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &ifStmt{pos: at, cond: cond, thenBody: thenBody}
	switch {
	case p.isKw("elseif"):
		elseIf, err := p.ifStatement() // consumes through the matching end
		if err != nil {
			return nil, err
		}
		node.elseBody = []stmt{elseIf}
		return node, nil
	case p.isKw("else"):
		p.advance()
		if node.elseBody, err = p.block(); err != nil {
			return nil, err
		}
	}
	return node, p.expectKw("end")
}

func (p *parser) forStatement() (stmt, error) {
	at := p.advance().pos // for
	key, err := p.declName()
	if err != nil {
		return nil, err
	}
	if p.isOp("=") {
		return nil, errAt(at, "numeric for is not supported; iterate with for k, v in ipairs(t)")
	}
	node := &forStmt{pos: at, key: key}
	if p.acceptOp(",") {
		if node.val, err = p.declName(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("in"); err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tkName || t.text != "ipairs" || !p.tok(1).isOp("(") {
		return nil, errAt(t.pos, "for iterates only ipairs(t)")
	}
	p.i += 2 // ipairs (
	if node.seq, err = p.expression(); err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("do"); err != nil {
		return nil, err
	}
	names := []string{key}
	if node.val != "" {
		names = append(names, node.val)
	}
	if node.body, err = p.block(names...); err != nil {
		return nil, err
	}
	return node, p.expectKw("end")
}

func (p *parser) exprList() ([]expr, error) {
	var out []expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptOp(",") {
			return out, nil
		}
	}
}

// binary operator precedences (Lua 5.1); ^ is right associative.
type opPrec struct{ left, right int }

var binPrec = map[string]opPrec{
	"or":  {1, 1},
	"and": {2, 2},
	"<":   {3, 3}, ">": {3, 3}, "<=": {3, 3}, ">=": {3, 3}, "~=": {3, 3}, "==": {3, 3},
	"+": {10, 10}, "-": {10, 10},
	"*": {11, 11}, "/": {11, 11}, "%": {11, 11},
	"^": {14, 13},
}

const unaryPrec = 12

func (p *parser) expression() (expr, error) { return p.binaryExpr(0) }

func (p *parser) binaryExpr(limit int) (expr, error) {
	defer func(depth int) { p.depth = depth }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	var left expr
	var err error
	if t := p.cur(); t.isOp("-") || t.isOp("#") || t.isKw("not") {
		p.advance()
		operand, err := p.binaryExpr(unaryPrec)
		if err != nil {
			return nil, err
		}
		left = &unExpr{pos: t.pos, op: t.text, e: operand}
	} else if left, err = p.simpleExpr(); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tkOp && !t.isKw("and") && !t.isKw("or") {
			return left, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec.left <= limit {
			return left, nil
		}
		if err := p.nest(); err != nil { // the operator wraps left
			return nil, err
		}
		p.advance()
		right, err := p.binaryExpr(prec.right)
		if err != nil {
			return nil, err
		}
		left = &binExpr{pos: t.pos, op: t.text, l: left, r: right}
	}
}

func (p *parser) simpleExpr() (expr, error) {
	t := p.cur()
	var val Value
	switch {
	case t.kind == tkNumber:
		val = t.num
	case t.kind == tkString:
		val = t.text
	case t.isKw("true") || t.isKw("false"):
		val = t.text == "true"
	case t.isKw("nil"):
	case t.isKw("function"):
		return nil, errAt(t.pos, "function literals are only allowed as pcall's first argument")
	default:
		return p.suffixedExpr()
	}
	p.advance()
	return &constExpr{pos: t.pos, val: val}, nil
}

// suffixedExpr parses a name, call or parenthesised expression followed by
// index suffixes.
func (p *parser) suffixedExpr() (expr, error) {
	defer func(depth int) { p.depth = depth }(p.depth)
	t := p.cur()
	var e expr
	switch {
	case t.kind == tkName:
		if err := p.resolve(t); err != nil {
			return nil, err
		}
		p.advance()
		if p.cur().kind == tkString {
			return nil, errAt(p.cur().pos, "call arguments must be in parentheses")
		}
		if p.isOp("(") {
			args, err := p.callArgs(t.text)
			if err != nil {
				return nil, err
			}
			e = &callExpr{pos: t.pos, name: t.text, args: args}
		} else {
			e = &nameExpr{pos: t.pos, name: t.text}
		}
	case t.isOp("("):
		p.advance()
		inner, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		e = inner
	default:
		return nil, errAt(t.pos, "unexpected %s", t)
	}
	for {
		t := p.cur()
		if !t.isOp(".") && !t.isOp("[") {
			return e, nil
		}
		if err := p.nest(); err != nil { // the index wraps e
			return nil, err
		}
		switch {
		case p.acceptOp("."):
			field, err := p.expectName()
			if err != nil {
				return nil, err
			}
			e = &indexExpr{pos: t.pos, obj: e, key: &constExpr{pos: t.pos, val: field}}
		case p.acceptOp("["):
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = &indexExpr{pos: t.pos, obj: e, key: key}
		}
	}
}

// callArgs parses a parenthesised argument list. Directly inside pcall( a
// parameterless function literal may stand first.
func (p *parser) callArgs(callee string) ([]expr, error) {
	p.advance() // (
	var args []expr
	for !p.acceptOp(")") {
		if len(args) > 0 {
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		var a expr
		var err error
		if callee == "pcall" && len(args) == 0 && p.isKw("function") {
			a, err = p.funcLiteral()
		} else {
			a, err = p.expression()
		}
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

func (p *parser) funcLiteral() (expr, error) {
	at := p.advance().pos // function
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if !p.acceptOp(")") {
		return nil, errAt(p.cur().pos, "function parameters are not supported")
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcExpr{pos: at, body: body}, p.expectKw("end")
}
