package sqlparse

import (
	"fmt"
	"strings"
	"sync"
)

// tokBufs recycles the token slice of a Parse call: the statement it
// returns keeps strings (substrings of src, or the unescaped copy of a
// string literal with a doubled quote), never a Token or the slice, so
// the slice dies with the call.
var tokBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens caps what the pool retains, so one huge statement
// cannot pin its token slice (32 bytes a token) forever.
const maxPooledTokens = 1024

func putTokBuf(buf *[]Token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf) // a pooled slice must not keep the statement's text alive
	*buf = (*buf)[:0]
	tokBufs.Put(buf)
}

// Parse parses a single SELECT statement (optionally terminated by ';').
// Lexing is eager: an error anywhere in the text is reported before any
// parse error.
func Parse(src string) (*SelectStmt, error) {
	buf := tokBufs.Get().(*[]Token)
	defer putTokBuf(buf)
	toks, err := lexInto(*buf, src)
	*buf = toks // what putTokBuf clears, and what lexing grew
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses the tokens of one statement (ending in TokenEOF).
func parseTokens(toks []Token) (*SelectStmt, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokenPunct && p.peek().Text == ";" {
		p.advance()
	}
	if p.peek().Kind != TokenEOF {
		return nil, p.errorf("unexpected trailing token %s", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
	nlit int // literal tokens consumed so far
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokenEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// literal consumes the current token, a literal. The parser never
// backtracks, so counting the literals it consumes numbers them in
// lexical order.
func (p *parser) literal(kind LiteralKind) *Literal {
	p.nlit++
	return &Literal{Kind: kind, Text: p.advance().Text, Ord: p.nlit}
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokenIdent && strings.EqualFold(t.Text, kw)
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.peek())
	}
	p.advance()
	return nil
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

// expectPunct consumes the given punctuation or fails.
func (p *parser) expectPunct(text string) error {
	t := p.peek()
	if t.Kind != TokenPunct || t.Text != text {
		return p.errorf("expected %q, found %s", text, t)
	}
	p.advance()
	return nil
}

// acceptPunct consumes the punctuation if present.
func (p *parser) acceptPunct(text string) bool {
	t := p.peek()
	if t.Kind == TokenPunct && t.Text == text {
		p.advance()
		return true
	}
	return false
}

// reservedWords cannot be used as bare aliases.
var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"by": true, "inner": true, "left": true, "join": true, "on": true,
	"and": true, "or": true, "as": true, "having": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		var jt JoinType
		switch {
		case p.isKeyword("inner"):
			p.advance()
			jt = JoinInner
		case p.isKeyword("left"):
			p.advance()
			jt = JoinLeft
		case p.isKeyword("join"):
			jt = JoinInner
		default:
			goto joinsDone
		}
		if err := p.expectKeyword("join"); err != nil {
			return nil, err
		}
		right, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, &JoinClause{Type: jt, Right: right, On: on})
	}
joinsDone:
	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if p.acceptKeyword("having") {
			h, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Having = h
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	expr, err := p.parseValueExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: expr}
	if p.acceptKeyword("as") {
		t := p.peek()
		if t.Kind != TokenIdent {
			return nil, p.errorf("expected alias after 'as', found %s", t)
		}
		item.Alias = t.Text
		p.advance()
	} else if t := p.peek(); t.Kind == TokenIdent && !reservedWords[strings.ToLower(t.Text)] {
		item.Alias = t.Text
		p.advance()
	}
	return item, nil
}

// aggregateFuncs recognized in SELECT lists.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// parseValueExpr parses a select-list value: aggregate call, column ref, or
// literal.
func (p *parser) parseValueExpr() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenIdent:
		name := strings.ToLower(t.Text)
		if aggregateFuncs[name] {
			// Look ahead for '(' to distinguish a column named like
			// an aggregate from an actual call.
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokenPunct && p.toks[p.pos+1].Text == "(" {
				return p.parseFuncCall(name)
			}
		}
		return p.parseColumnRef()
	case TokenNumber:
		return p.literal(LitNumber), nil
	case TokenString:
		return p.literal(LitString), nil
	default:
		return nil, p.errorf("expected expression, found %s", t)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	p.advance() // function name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptPunct("*") {
		fc.Star = true
	} else {
		arg, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		fc.Arg = arg
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	t := p.peek()
	if t.Kind != TokenIdent {
		return nil, p.errorf("expected column reference, found %s", t)
	}
	if reservedWords[strings.ToLower(t.Text)] {
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	}
	p.advance()
	ref := &ColumnRef{Name: t.Text}
	if p.acceptPunct(".") {
		t2 := p.peek()
		if t2.Kind != TokenIdent {
			return nil, p.errorf("expected column name after '.', found %s", t2)
		}
		p.advance()
		ref.Qualifier = ref.Name
		ref.Name = t2.Text
	}
	return ref, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	if p.acceptPunct("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ref := &TableRef{Subquery: sub}
		p.acceptKeyword("as")
		t := p.peek()
		if t.Kind != TokenIdent || reservedWords[strings.ToLower(t.Text)] {
			return nil, p.errorf("derived table requires an alias, found %s", t)
		}
		ref.Alias = t.Text
		p.advance()
		return ref, nil
	}
	t := p.peek()
	if t.Kind != TokenIdent {
		return nil, p.errorf("expected table name, found %s", t)
	}
	if reservedWords[strings.ToLower(t.Text)] {
		return nil, p.errorf("unexpected keyword %q in FROM", t.Text)
	}
	p.advance()
	ref := &TableRef{Table: t.Text}
	if p.acceptKeyword("as") {
		t2 := p.peek()
		if t2.Kind != TokenIdent {
			return nil, p.errorf("expected alias after 'as', found %s", t2)
		}
		ref.Alias = t2.Text
		p.advance()
	} else if t2 := p.peek(); t2.Kind == TokenIdent && !reservedWords[strings.ToLower(t2.Text)] {
		ref.Alias = t2.Text
		p.advance()
	}
	return ref, nil
}

// parseExpr parses a boolean expression with precedence OR < AND < cmp.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parsePrimaryPred()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parsePrimaryPred()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimaryPred() (Expr, error) {
	if p.acceptPunct("(") {
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokenPunct {
		return nil, p.errorf("expected comparison operator, found %s", t)
	}
	op, ok := comparisonOps[t.Text]
	if !ok {
		return nil, p.errorf("unsupported operator %q", t.Text)
	}
	p.advance()
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, L: left, R: right}, nil
}

func (p *parser) parseOperand() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenIdent:
		return p.parseColumnRef()
	case TokenNumber:
		return p.literal(LitNumber), nil
	case TokenString:
		return p.literal(LitString), nil
	default:
		return nil, p.errorf("expected operand, found %s", t)
	}
}
