package sqlparse

import (
	"context"
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokSemi
	tokStar
	tokLt
	tokLe
	tokEq
	tokNe
	tokGe
	tokGt
	tokPlus
	tokMinus
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokSemi:
		return "';'"
	case tokStar:
		return "'*'"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokEq:
		return "'='"
	case tokNe:
		return "'<>'"
	case tokGe:
		return "'>='"
	case tokGt:
		return "'>'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	}
	return "unknown token"
}

// token is one lexical token with its source position (1-based line/col).
type token struct {
	kind tokenKind
	text string // identifier text, number literal, or unquoted string body
	line int
	col  int
}

// keyword reports whether the token is the given SQL keyword
// (case-insensitive).
func (t token) keyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// lexer turns SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
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

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpaceAndComments() error {
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

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
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
		// The body is sliced out of src; only a body containing a ''
		// escape is copied, from its first escape on.
		start := l.pos
		var esc []byte
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(line, col, "unterminated string literal")
			}
			ch := l.advance()
			if ch != '\'' {
				if esc != nil {
					esc = append(esc, ch)
				}
				continue
			}
			if l.peek() != '\'' {
				if esc == nil {
					return mk(tokString, l.src[start:l.pos-1])
				}
				return mk(tokString, string(esc))
			}
			// '' escapes a quote: keep one of the pair.
			if esc == nil {
				esc = []byte(l.src[start:l.pos])
			} else {
				esc = append(esc, '\'')
			}
			l.advance()
		}
	case c >= '0' && c <= '9':
		start := l.pos - 1
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.peek()
			if ch >= '0' && ch <= '9' {
				l.advance()
				continue
			}
			// A '.' is part of the number only if followed by a digit;
			// this keeps "Likes.beer" style qualified names unambiguous.
			if ch == '.' && !seenDot && l.pos+1 < len(l.src) &&
				l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				seenDot = true
				l.advance()
				continue
			}
			break
		}
		return mk(tokNumber, l.src[start:l.pos])
	case isIdentStart(c):
		start := l.pos - 1
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		return mk(tokIdent, l.src[start:l.pos])
	}
	return token{}, l.errorf(line, col, "unexpected character %q", c)
}

// lexAll tokenizes the entire input.
func lexAll(src string) ([]token, error) {
	return lexAllContext(context.Background(), src)
}

// maxPresizedTokens caps the token slice's first allocation, so a large
// input that is mostly one comment or string literal does not reserve
// room for tokens it never has; longer token lists grow by append.
const maxPresizedTokens = 1024

// lexAllContext tokenizes the entire input, checking the context every
// few thousand tokens so lexing megabytes of input stays cancelable.
func lexAllContext(ctx context.Context, src string) ([]token, error) {
	l := newLexer(src)
	// Generated and hand-written queries average three to four bytes per
	// token, so this sizes the slice once for nearly every input.
	toks := make([]token, 0, min(len(src)/3+2, maxPresizedTokens))
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if len(toks)&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
