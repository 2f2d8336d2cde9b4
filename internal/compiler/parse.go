package compiler

import (
	"slices"
	"sync"
)

// astParser turns the lexer's token stream into a Module AST. It pulls
// tokens one at a time and looks one token past the current one, never
// further and never back, so the source is lexed once and no token
// slice is built. AST lists are cut from pools (see pool), a few
// backing arrays per kind for the whole module.
//
// Errors are sticky: the first one is kept in err; from then on next,
// expect, ident and number consume nothing and accept reports true, so
// every list loop ends and the grammar reads straight through to Parse,
// which returns the first error, exactly where it arose.
type astParser struct {
	lx     lexer
	tok    token // the current token
	peek   token // the one token of lookahead
	lexErr error // the lexer's first error; the stream ends there
	err    error // the first parse error

	fields  pool[Field]
	stmts   pool[Stmt]
	entries pool[Entry]
	names   pool[string]   // action parameters and table action lists
	keys    pool[FieldRef] // table keys
	nums    pool[uint64]   // entry key values, masks and arguments
}

// pool is one growing backing array that the parser cuts AST lists of
// one element type from: a list is the run appended since its start.
// Lists of one type never nest, so each run is contiguous; a backing
// array that grows leaves the lists already cut from the old one
// intact, since nothing appends there again. A module's lists of one
// type thus cost a few allocations in all, not one or more each.
type pool[T any] []T

// cut returns the run appended since start, capped so that appending
// to it cannot reach the pool.
func (p pool[T]) cut(start int) []T { return p[start:len(p):len(p)] }

// add appends v to a module-level list, giving a new list room for
// two: a module declares few of each kind.
func add[T any](list []T, v T) []T {
	if list == nil {
		list = make([]T, 0, 2)
	}
	return append(list, v)
}

// reuse returns p emptied, or a new pool with room for n when p has
// no backing array yet.
func (p pool[T]) reuse(n int) pool[T] {
	if p == nil {
		return make(pool[T], 0, n)
	}
	return p[:0]
}

// parseStore is the storage one parse fills: the module, its lists
// and the pools their nested lists are cut from. Parse gives every AST
// a store of its own. Compile keeps no AST, so it parses into a store
// recycled across compiles (stores) and zeroes it once codegen is done.
type parseStore struct {
	mod     Module
	fields  pool[Field]
	stmts   pool[Stmt]
	entries pool[Entry]
	names   pool[string]
	keys    pool[FieldRef]
	nums    pool[uint64]
}

var stores = sync.Pool{New: func() any { return new(parseStore) }}

// Parse parses module source text into an AST.
func Parse(src string) (*Module, error) { return new(parseStore).parse(src) }

// parse parses src into s, reusing the backing arrays an earlier parse
// left there.
func (s *parseStore) parse(src string) (*Module, error) {
	p := astParser{
		lx:      lexer{src: src, line: 1, col: 1},
		fields:  s.fields.reuse(4),
		stmts:   s.stmts.reuse(4),
		entries: s.entries.reuse(4),
		names:   s.names.reuse(4),
		keys:    s.keys.reuse(2),
		nums:    s.nums.reuse(8),
	}
	p.advance() // the first token into peek
	p.advance() // and on into tok
	m := &s.mod
	p.module(m)
	s.fields, s.stmts, s.entries, s.names, s.keys, s.nums = p.fields, p.stmts, p.entries, p.names, p.keys, p.nums
	if p.err != nil {
		// A lexical error anywhere in the source outranks a parse
		// error before it: Parse reports the source's lexical errors
		// first, as a parser over a whole token slice would.
		for p.lexErr == nil && p.peek.kind != tokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
}

// advance moves to the next token. A lexical error ends the stream:
// it is kept in p.lexErr and the parser sees end of input.
func (p *astParser) advance() {
	p.tok = p.peek
	if p.lexErr != nil {
		return
	}
	t, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tokEOF, line: p.lx.line, col: p.lx.col}
	}
	p.peek = t
}

// fail records err unless an earlier error stands.
func (p *astParser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// next consumes and returns the current token.
func (p *astParser) next() token {
	t := p.tok
	if p.err == nil {
		p.advance()
	}
	return t
}

// accept consumes the current token if it is text.
func (p *astParser) accept(text string) bool {
	if p.err != nil {
		return true
	}
	if p.tok.kind != tokEOF && p.tok.text == text {
		p.advance()
		return true
	}
	return false
}

func (p *astParser) expect(text string) token {
	if t := p.tok; p.err == nil && (t.text != text || t.kind == tokEOF) {
		p.fail(errAt(t, "expected %q, found %v", text, t))
	}
	return p.next()
}

func (p *astParser) ident() token {
	if t := p.tok; p.err == nil && t.kind != tokIdent {
		p.fail(errAt(t, "expected identifier, found %v", t))
	}
	return p.next()
}

func (p *astParser) number() token {
	if t := p.tok; p.err == nil && t.kind != tokNumber {
		p.fail(errAt(t, "expected number, found %v", t))
	}
	return p.next()
}

// release zeroes s, so a recycled store keeps no source alive, and
// returns it to stores. The lists keep their backing arrays.
func (s *parseStore) release() {
	m := &s.mod
	clear(m.Headers)
	clear(m.Registers)
	clear(m.Parser)
	clear(m.Actions)
	clear(m.Tables)
	clear(m.Control)
	*m = Module{Headers: m.Headers[:0], Registers: m.Registers[:0], Parser: m.Parser[:0],
		Actions: m.Actions[:0], Tables: m.Tables[:0], Control: m.Control[:0]}
	clear(s.fields)
	clear(s.stmts)
	clear(s.entries)
	clear(s.names)
	clear(s.keys)
	clear(s.nums)
	stores.Put(s)
}

// module parses the source into m, whose lists are empty.
func (p *astParser) module(m *Module) {
	p.expect("module")
	m.Name = p.ident().text
	p.expect(";")
	for p.err == nil && p.tok.kind != tokEOF {
		switch t := p.tok; t.text {
		case "header":
			m.Headers = add(m.Headers, p.header())
		case "register":
			m.Registers = add(m.Registers, p.register())
		case "parser":
			p.parserBlock(m)
		case "action":
			m.Actions = add(m.Actions, p.action())
		case "table":
			m.Tables = add(m.Tables, p.table())
		case "control":
			p.control(m)
		default:
			p.fail(errAt(t, "expected declaration, found %v", t))
		}
	}
}

func (p *astParser) header() Header {
	h := Header{Line: p.next().line}
	h.Name = p.ident().text
	p.expect("{")
	start := len(p.fields)
	for !p.accept("}") {
		fn := p.ident()
		p.expect(":")
		w := p.number()
		p.expect(";")
		p.fields = append(p.fields, Field{Name: fn.text, Width: int(w.num), Line: fn.line})
	}
	h.Fields = p.fields.cut(start)
	return h
}

func (p *astParser) register() Register {
	r := Register{Line: p.next().line}
	r.Name = p.ident().text
	p.expect("[")
	r.Words = int(p.number().num)
	p.expect("]")
	p.expect(";")
	return r
}

// parserBlock appends the block's extracts to m.Parser.
func (p *astParser) parserBlock(m *Module) {
	p.next()
	p.expect("{")
	for !p.accept("}") {
		ex := Extract{Line: p.expect("extract").line}
		ex.Header = p.ident().text
		p.expect("at")
		ex.Offset = int(p.number().num)
		p.expect(";")
		m.Parser = add(m.Parser, ex)
	}
}

// fieldRef parses HDR.FIELD.
func (p *astParser) fieldRef() FieldRef {
	h := p.ident()
	p.expect(".")
	return FieldRef{Header: h.text, Field: p.ident().text, Line: h.line}
}

// operand parses FIELD | NUMBER | PARAM, a bare identifier that must
// name one of params.
func (p *astParser) operand(params []string) Operand {
	switch t := p.tok; {
	case p.err != nil:
	case t.kind == tokNumber:
		p.advance()
		return Operand{Kind: OpndConst, Value: t.num, Line: t.line}
	case t.kind == tokIdent && p.peek.text == ".": // a field
		fr := p.fieldRef()
		return Operand{Kind: OpndField, Field: fr, Line: fr.Line}
	case t.kind == tokIdent:
		p.advance()
		if !slices.Contains(params, t.text) {
			p.fail(errAt(t, "unknown identifier %q (not a parameter; fields are written hdr.field)", t.text))
		}
		return Operand{Kind: OpndParam, Param: t.text, Line: t.line}
	default:
		p.fail(errAt(t, "expected operand, found %v", t))
	}
	return Operand{}
}

func (p *astParser) action() Action {
	a := Action{Line: p.next().line}
	a.Name = p.ident().text
	p.expect("(")
	start := len(p.names)
	for !p.accept(")") {
		if len(p.names) > start {
			p.expect(",")
		}
		p.names = append(p.names, p.ident().text)
	}
	a.Params = p.names.cut(start)
	p.expect("{")
	start = len(p.stmts)
	for !p.accept("}") {
		p.stmts = append(p.stmts, p.stmt(a.Params))
	}
	a.Body = p.stmts.cut(start)
	return a
}

// stmt parses one action statement.
func (p *astParser) stmt(params []string) Stmt {
	t := p.tok
	s := Stmt{Line: t.line}

	// Platform calls.
	switch t.text {
	case "set_port":
		p.advance()
		p.expect("(")
		s.Kind, s.A = StmtSetPort, p.operand(params)
		if s.A.Kind == OpndField {
			p.fail(errAt(t, "set_port takes a constant or parameter"))
		}
		p.expect(")")
		p.expect(";")
		return s
	case "drop", "recirculate":
		p.advance()
		p.expect("(")
		p.expect(")")
		p.expect(";")
		s.Kind = StmtDrop
		if t.text == "recirculate" {
			s.Kind = StmtRecirculate
		}
		return s
	}

	// Either an assignment to a field (hdr.f = ...) or a store (reg[...] = f).
	if t.kind != tokIdent {
		p.fail(errAt(t, "expected statement, found %v", t))
		return s
	}
	if p.peek.text == "[" {
		// Store: REG [ addr ] = FIELD ;
		s.Kind, s.Reg = StmtStore, p.next().text
		p.expect("[")
		s.Addr = p.addrExpr(params)
		p.expect("]")
		p.expect("=")
		s.Dest = p.fieldRef()
		p.expect(";")
		return s
	}

	s.Dest = p.fieldRef()
	p.expect("=")
	switch {
	case p.tok.text == "loadd": // loadd(addr)
		p.advance()
		p.expect("(")
		s.Kind, s.Addr = StmtLoadd, p.addrExpr(params)
		p.expect(")")
	case p.tok.kind == tokIdent && p.peek.text == "[":
		// reg[addr] — a load, or with a trailing ++ the loadd fetch-and-add.
		s.Kind, s.Reg = StmtLoad, p.next().text
		p.expect("[")
		s.Addr = p.addrExpr(params)
		p.expect("]")
		if p.err == nil && p.accept("++") {
			s.Kind = StmtLoadd
		}
	default: // a [op b]
		s.Kind, s.A = StmtAssign, p.operand(params)
		if p.accept("+") {
			s.Op = BinAdd
		} else if p.accept("-") {
			s.Op = BinSub
		}
		if p.err == nil && s.Op != BinNone {
			s.B = p.operand(params)
		}
	}
	p.expect(";")
	return s
}

// addrExpr parses FIELD | CONST | FIELD + CONST.
func (p *astParser) addrExpr(params []string) AddrExpr {
	t := p.tok
	a := AddrExpr{Line: t.line}
	op := p.operand(params)
	if op.Kind != OpndField {
		a.Const = op
		return a
	}
	a.HasField, a.Field = true, op.Field
	a.Const = Operand{Kind: OpndConst, Value: 0, Line: t.line}
	if p.err == nil && p.accept("+") {
		if a.Const = p.operand(params); a.Const.Kind == OpndField {
			p.fail(errAt(t, "address may add at most one field and one constant"))
		}
	}
	return a
}

func (p *astParser) table() Table {
	tb := Table{Line: p.next().line}
	tb.Name = p.ident().text
	p.expect("{")
	for !p.accept("}") {
		t := p.tok
		switch t.text {
		case "key":
			p.advance()
			p.expect("=")
			p.expect("{")
			start := len(p.keys)
			p.keys = append(p.keys, tb.Keys...) // a repeated key list extends the first
			for !p.accept("}") {
				p.keys = append(p.keys, p.fieldRef())
				p.expect(";")
			}
			tb.Keys = p.keys.cut(start)
		case "actions":
			p.advance()
			p.expect("=")
			p.expect("{")
			start := len(p.names)
			p.names = append(p.names, tb.Actions...)
			for !p.accept("}") {
				p.names = append(p.names, p.ident().text)
				p.expect(";")
			}
			tb.Actions = p.names.cut(start)
		case "size":
			p.advance()
			p.expect("=")
			tb.Size = int(p.number().num)
			p.expect(";")
		case "match":
			p.advance()
			p.expect("=")
			switch kind := p.ident(); kind.text {
			case "exact":
				tb.Ternary = false
			case "ternary":
				tb.Ternary = true
			default:
				p.fail(errAt(kind, "match kind must be exact or ternary, found %q", kind.text))
			}
			p.expect(";")
		case "entries":
			p.advance()
			p.expect("{")
			start := len(p.entries)
			p.entries = append(p.entries, tb.Entries...)
			for !p.accept("}") {
				p.entries = append(p.entries, p.entry())
			}
			tb.Entries = p.entries.cut(start)
		default:
			p.fail(errAt(t, "expected table property, found %v", t))
		}
	}
	return tb
}

// entry parses ( v, ... ) -> action ( arg, ... ) ; The key values and
// then their masks are cut from the number pool as one run each, so a
// mask waits in a small local buffer while its values are read.
func (p *astParser) entry() Entry {
	e := Entry{Line: p.expect("(").line}
	var maskBuf [maxKeyFields]uint64
	masks := maskBuf[:0]
	start := len(p.nums)
	for !p.accept(")") {
		if len(p.nums) > start {
			p.expect(",")
		}
		p.nums = append(p.nums, p.number().num)
		// Optional per-field ternary mask: VAL/MASK (Appendix B).
		mask := ^uint64(0)
		if p.err == nil && p.accept("/") {
			mask = p.number().num
		}
		masks = append(masks, mask)
	}
	e.KeyVals = p.nums.cut(start)
	start = len(p.nums)
	p.nums = append(p.nums, masks...)
	e.KeyMasks = p.nums.cut(start)
	p.expect("->")
	e.Action = p.ident().text
	if p.err == nil && p.accept("(") {
		start = len(p.nums)
		for !p.accept(")") {
			if len(p.nums) > start {
				p.expect(",")
			}
			p.nums = append(p.nums, p.number().num)
		}
		e.Args = p.nums.cut(start)
	}
	p.expect(";")
	return e
}

// control appends the block's statements to m.Control.
func (p *astParser) control(m *Module) {
	p.next()
	p.expect("{")
	for !p.accept("}") {
		switch t := p.tok; t.text {
		case "apply":
			m.Control = add(m.Control, ControlStmt{Table: p.applyStmt(), Line: t.line})
		case "if":
			m.Control = add(m.Control, p.ifStmt())
		default:
			p.fail(errAt(t, "expected apply or if, found %v", t))
		}
	}
}

func (p *astParser) applyStmt() string {
	p.expect("apply")
	p.expect("(")
	tbl := p.ident()
	p.expect(")")
	p.expect(";")
	return tbl.text
}

func (p *astParser) ifStmt() ControlStmt {
	kw := p.next()
	p.expect("(")
	c := &Condition{A: p.fieldRef(), Line: kw.line}
	opTok := p.next()
	switch opTok.text {
	case "==":
		c.Op = CmpEq
	case "!=":
		c.Op = CmpNe
	case "<":
		c.Op = CmpLt
	case ">":
		c.Op = CmpGt
	case "<=":
		c.Op = CmpLe
	case ">=":
		c.Op = CmpGe
	default:
		p.fail(errAt(opTok, "expected comparison operator, found %v", opTok))
	}
	if p.tok.kind == tokIdent && p.peek.text != "." {
		p.fail(errAt(opTok, "condition operand must be a field or constant"))
	}
	c.B = p.operand(nil)
	p.expect(")")
	p.expect("{")
	cs := ControlStmt{Table: p.applyStmt(), Cond: c, Line: kw.line}
	p.expect("}")
	if p.err == nil && p.accept("else") {
		p.expect("{")
		cs.ElseTable = p.applyStmt()
		p.expect("}")
	}
	return cs
}
