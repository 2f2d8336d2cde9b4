// Package compiler implements the Menshen module compiler (§3.4): a
// self-contained frontend for a P4-16-subset module language and a
// backend that emits per-module Menshen pipeline configurations
// (core.ModuleConfig).
//
// The paper's compiler reuses the open-source P4-16 reference compiler's
// frontend and midend and adds a ~3.8k-line backend. Here the frontend is
// reimplemented from scratch for the subset of P4-16 the Menshen hardware
// can execute: headers of 16/32/48-bit fields, a linear parser, tables
// with exact-match keys, single-VLIW actions, compile-time entries,
// stateful registers, and a feed-forward control block with at most one
// conditional level. The backend performs the paper's resource-usage
// checks, static isolation checks, and dependency analysis, and generates
// the parser/deparser entries, key-extractor and mask configurations, CAM
// entries, and VLIW actions.
package compiler

import (
	"fmt"
	"math"
	"strings"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single/multi char punctuation: { } ( ) ; : , . = -> + - < > <= >= == != [ ]
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokPunct:
		return "punctuation"
	}
	return "token"
}

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string
	num  uint64
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError is a lexical or parse error with source position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(t token, format string, args ...any) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// lexer tokenizes module source.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// punct1 is the single-character punctuation; a token's text slices it,
// so it costs no allocation.
const punct1 = "{}();:,.=+-<>[]!*/"

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			for l.pos+1 < len(l.src) && !(l.peekByte() == '*' && l.src[l.pos+1] == '/') {
				l.advance()
			}
			if l.pos+1 >= len(l.src) {
				return token{}, &SyntaxError{Line: l.line, Col: l.col, Msg: "unterminated block comment"}
			}
			l.advance()
			l.advance()
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

scan:
	startLine, startCol := l.line, l.col
	c := l.peekByte()

	if isIdentStart(c) {
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: startLine, col: startCol}, nil
	}

	if c >= '0' && c <= '9' {
		start := l.pos
		base := 10
		if c == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
			base = 16
			l.advance()
			l.advance()
		}
		for l.pos < len(l.src) && isDigitIn(l.peekByte(), base) {
			l.advance()
		}
		text := l.src[start:l.pos]
		var v uint64
		var err error
		if base == 16 {
			v, err = parseUint(text[2:], 16)
		} else {
			v, err = parseUint(text, 10)
		}
		if err != nil {
			return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: fmt.Sprintf("bad number %q", text)}
		}
		return token{kind: tokNumber, text: text, num: v, line: startLine, col: startCol}, nil
	}

	if c == '"' {
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '"' {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated string"}
		}
		text := l.src[start:l.pos]
		l.advance()
		return token{kind: tokString, text: text, line: startLine, col: startCol}, nil
	}

	if l.pos+1 < len(l.src) {
		switch two := l.src[l.pos : l.pos+2]; two {
		case "->", "==", "!=", "<=", ">=", "++":
			l.advance()
			l.advance()
			return token{kind: tokPunct, text: two, line: startLine, col: startCol}, nil
		}
	}
	if i := strings.IndexByte(punct1, c); i >= 0 {
		l.advance()
		return token{kind: tokPunct, text: punct1[i : i+1], line: startLine, col: startCol}, nil
	}
	if c >= 0x80 {
		// Source is ASCII: a byte of a multi-byte character is reported
		// where it stands, not decoded.
		return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: fmt.Sprintf("unexpected byte %#02x", c)}
	}
	return token{}, &SyntaxError{Line: startLine, Col: startCol, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// P4-16 identifiers are ASCII: [A-Za-z_][A-Za-z0-9_]*. c|0x20 folds
// upper-case letters onto lower-case ones and moves no other byte into
// 'a'-'z'.
func isIdentStart(c byte) bool { return c == '_' || 'a' <= c|0x20 && c|0x20 <= 'z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || '0' <= c && c <= '9' }

func isDigitIn(c byte, base int) bool {
	if base == 16 {
		return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
	}
	return c >= '0' && c <= '9'
}

// parseUint parses digits in base 10 or 16. A value above 2^64-1 is an
// error, not a silent wrap.
func parseUint(s string, base int) (uint64, error) {
	var v uint64
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	b := uint64(base)
	for _, r := range s {
		var d uint64
		switch {
		case r >= '0' && r <= '9':
			d = uint64(r - '0')
		case r >= 'a' && r <= 'f':
			d = uint64(r-'a') + 10
		case r >= 'A' && r <= 'F':
			d = uint64(r-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", r)
		}
		if d >= b {
			return 0, fmt.Errorf("digit %q out of base %d", r, base)
		}
		if v > (math.MaxUint64-d)/b {
			return 0, fmt.Errorf("%s overflows 64 bits", s)
		}
		v = v*b + d
	}
	return v, nil
}
