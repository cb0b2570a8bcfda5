// Package htmlx is a small, dependency-free HTML tokenizer and DOM builder,
// sufficient for the Web-page Attribute Extraction component of the paper
// (§4): it parses merchant landing pages, builds an element tree, and lets
// the extractor walk tables. It handles the messy HTML found in the wild —
// unquoted attributes, unclosed tags (<li>, <td>, <tr>, <p>), void elements
// (<br>, <img>), comments, script/style raw text, and character entities.
//
// It intentionally does not implement the full WHATWG parsing algorithm;
// the subset implemented is documented per function and covered by tests.
package htmlx

import (
	"strings"
	"unicode"
)

// TokenType enumerates the lexical token kinds.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <name attr=...>.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingToken is <name ... />.
	SelfClosingToken
	// CommentToken is <!-- ... --> (also used for <!doctype>).
	CommentToken
)

// Token is one lexical HTML token.
type Token struct {
	Type TokenType
	// Data is the tag name (lower-cased) for tag tokens, or the decoded
	// text for TextToken/CommentToken.
	Data string
	// Attrs holds the tag attributes in document order.
	Attrs []Attr
}

// Attr is one name="value" attribute.
type Attr struct {
	Key string
	Val string
}

// Tokenize lexes the whole document into tokens. It never fails: malformed
// markup degrades to text, mirroring browser behaviour.
func Tokenize(input string) []Token {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		lt := strings.IndexByte(input[i:], '<')
		if lt < 0 {
			emitText(&toks, input[i:])
			break
		}
		if lt > 0 {
			emitText(&toks, input[i:i+lt])
			i += lt
		}
		// input[i] == '<'
		if i+1 >= n {
			emitText(&toks, input[i:])
			break
		}
		switch {
		case strings.HasPrefix(input[i:], "<!--"):
			end := strings.Index(input[i+4:], "-->")
			if end < 0 {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+4:]})
				i = n
			} else {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+4 : i+4+end]})
				i += 4 + end + 3
			}
		case input[i+1] == '!' || input[i+1] == '?':
			// Doctype or processing instruction: swallow to '>'.
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				i = n
			} else {
				toks = append(toks, Token{Type: CommentToken, Data: input[i+1 : i+end]})
				i += end + 1
			}
		case input[i+1] == '/':
			end := strings.IndexByte(input[i:], '>')
			if end < 0 {
				emitText(&toks, input[i:])
				i = n
				break
			}
			name := strings.ToLower(strings.TrimSpace(input[i+2 : i+end]))
			if name != "" {
				toks = append(toks, Token{Type: EndTagToken, Data: name})
			}
			i += end + 1
		case isNameStart(input[i+1]):
			tok, next := lexStartTag(input, i)
			toks = append(toks, tok)
			i = next
			// script and style content is raw text until the matching
			// close tag; never interpret tags inside it.
			if tok.Type == StartTagToken && (tok.Data == "script" || tok.Data == "style") {
				closer := "</" + tok.Data
				rest := strings.ToLower(input[i:])
				end := strings.Index(rest, closer)
				if end < 0 {
					if i < n {
						toks = append(toks, Token{Type: TextToken, Data: input[i:]})
					}
					i = n
					break
				}
				if end > 0 {
					toks = append(toks, Token{Type: TextToken, Data: input[i : i+end]})
				}
				i += end
				gt := strings.IndexByte(input[i:], '>')
				toks = append(toks, Token{Type: EndTagToken, Data: tok.Data})
				if gt < 0 {
					i = n
				} else {
					i += gt + 1
				}
			}
		default:
			// A lone '<' that does not open a tag: literal text.
			emitText(&toks, "<")
			i++
		}
	}
	return toks
}

func emitText(toks *[]Token, raw string) {
	if raw == "" {
		return
	}
	*toks = append(*toks, Token{Type: TextToken, Data: UnescapeEntities(raw)})
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// lexStartTag lexes a start tag beginning at input[start] == '<'.
// Returns the token and the index just past the closing '>'.
func lexStartTag(input string, start int) (Token, int) {
	i := start + 1
	n := len(input)
	nameStart := i
	for i < n && (isNameStart(input[i]) || input[i] >= '0' && input[i] <= '9' || input[i] == '-' || input[i] == ':') {
		i++
	}
	tok := Token{Type: StartTagToken, Data: strings.ToLower(input[nameStart:i])}
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(input[i]) {
			i++
		}
		if i >= n {
			return tok, n
		}
		if input[i] == '>' {
			return tok, i + 1
		}
		if input[i] == '/' {
			// Possibly self-closing.
			j := i + 1
			for j < n && isSpace(input[j]) {
				j++
			}
			if j < n && input[j] == '>' {
				tok.Type = SelfClosingToken
				return tok, j + 1
			}
			i++
			continue
		}
		// Attribute name.
		keyStart := i
		for i < n && input[i] != '=' && input[i] != '>' && input[i] != '/' && !isSpace(input[i]) {
			i++
		}
		key := strings.ToLower(input[keyStart:i])
		for i < n && isSpace(input[i]) {
			i++
		}
		val := ""
		if i < n && input[i] == '=' {
			i++
			for i < n && isSpace(input[i]) {
				i++
			}
			if i < n && (input[i] == '"' || input[i] == '\'') {
				quote := input[i]
				i++
				valStart := i
				for i < n && input[i] != quote {
					i++
				}
				val = input[valStart:i]
				if i < n {
					i++ // closing quote
				}
			} else {
				valStart := i
				for i < n && !isSpace(input[i]) && input[i] != '>' {
					i++
				}
				val = input[valStart:i]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: UnescapeEntities(val)})
		}
	}
	return tok, n
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// entityTable covers the named entities that occur in product spec markup.
var entityTable = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"deg": '°', "frac12": '½', "frac14": '¼', "times": '×',
	"ndash": '–', "mdash": '—', "hellip": '…', "bull": '•',
}

// UnescapeEntities decodes named and numeric character references. Unknown
// references are left verbatim (browser behaviour).
func UnescapeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		// A reference is at most 10 bytes up to its ';', so search only
		// that window: scanning to the end of s on every '&' would make
		// decoding quadratic in the input.
		semi := strings.IndexByte(s[i:min(i+11, len(s))], ';')
		if semi < 0 {
			b.WriteByte(c)
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if r, ok := decodeEntity(ent); ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func decodeEntity(ent string) (rune, bool) {
	if ent == "" {
		return 0, false
	}
	if ent[0] == '#' {
		num := ent[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		var v rune
		for _, c := range num {
			var d rune
			switch {
			case c >= '0' && c <= '9':
				d = c - '0'
			case base == 16 && c >= 'a' && c <= 'f':
				d = c - 'a' + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = c - 'A' + 10
			default:
				return 0, false
			}
			v = v*rune(base) + d
			if v > unicode.MaxRune {
				return 0, false
			}
		}
		if v == 0 {
			return 0, false
		}
		return v, true
	}
	r, ok := entityTable[ent]
	return r, ok
}
