package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// This file keeps the lexer that builds each token's text byte by byte
// in a strings.Builder, as the reference the slicing lexer in token.go is
// checked against, token for token and error for error.

// LexAll, RefLexAll and FuzzSeeds expose the production lexer, its
// reference and the fuzz seed corpus to the external test package, which
// can import the query generator.
var (
	LexAll    = lexAll
	RefLexAll = refLexAll
	FuzzSeeds = fuzzSeeds
)

// refLexAll tokenizes the entire input with the reference lexer.
func refLexAll(src string) ([]token, error) {
	l := newRefLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// refLexer is the reference lexer.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *refLexer) advance() byte {
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

func (l *refLexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			line, col := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return l.errorf(line, col, "unterminated block comment")
				}
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *refLexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.advance()
	mk := func(k tokenKind, text string) (token, error) {
		return token{kind: k, text: text, line: line, col: col}, nil
	}
	switch {
	case c == '(':
		return mk(tokLParen, "(")
	case c == ')':
		return mk(tokRParen, ")")
	case c == ',':
		return mk(tokComma, ",")
	case c == '.':
		return mk(tokDot, ".")
	case c == ';':
		return mk(tokSemi, ";")
	case c == '*':
		return mk(tokStar, "*")
	case c == '+':
		return mk(tokPlus, "+")
	case c == '-':
		return mk(tokMinus, "-")
	case c == '<':
		switch l.peek() {
		case '=':
			l.advance()
			return mk(tokLe, "<=")
		case '>':
			l.advance()
			return mk(tokNe, "<>")
		}
		return mk(tokLt, "<")
	case c == '>':
		if l.peek() == '=' {
			l.advance()
			return mk(tokGe, ">=")
		}
		return mk(tokGt, ">")
	case c == '=':
		return mk(tokEq, "=")
	case c == '!':
		if l.peek() == '=' {
			l.advance()
			return mk(tokNe, "!=")
		}
		return token{}, l.errorf(line, col, "unexpected character %q", c)
	case c == '\'':
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(line, col, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '\'' {
				if l.peek() == '\'' { // '' escapes a quote
					l.advance()
					b.WriteByte('\'')
					continue
				}
				return mk(tokString, b.String())
			}
			b.WriteByte(ch)
		}
	case c >= '0' && c <= '9':
		var b strings.Builder
		b.WriteByte(c)
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.peek()
			if ch >= '0' && ch <= '9' {
				b.WriteByte(l.advance())
				continue
			}
			// A '.' is part of the number only if followed by a digit;
			// this keeps "Likes.beer" style qualified names unambiguous.
			if ch == '.' && !seenDot && l.pos+1 < len(l.src) &&
				l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				seenDot = true
				b.WriteByte(l.advance())
				continue
			}
			break
		}
		return mk(tokNumber, b.String())
	case refIsIdentStart(c):
		var b strings.Builder
		b.WriteByte(c)
		for l.pos < len(l.src) && refIsIdentPart(l.peek()) {
			b.WriteByte(l.advance())
		}
		return mk(tokIdent, b.String())
	}
	return token{}, l.errorf(line, col, "unexpected character %q", c)
}
