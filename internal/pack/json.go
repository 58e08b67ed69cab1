package pack

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
)

// parseJSON reads a JSON document into the value tree, attaching
// 1-based source lines to every node. Lines come from the decoder's byte
// offset mapped through the newline index of the input — encoding/json
// reports offsets, not positions, so the mapping is ours.
func parseJSON(data []byte, source string) (*value, error) {
	lines := newLineIndex(data)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()

	root, err := decodeJSONValue(dec, lines, source, 0)
	if err != nil {
		return nil, err
	}
	// Reject trailing content after the document.
	if tok, err := dec.Token(); err != io.EOF {
		line := lines.line(dec.InputOffset())
		if err != nil {
			return nil, jsonError(err, lines, source)
		}
		return nil, errf(source, line, "", "unexpected trailing content %v after document", tok)
	}
	return root, nil
}

// maxJSONDepth bounds object/array nesting. The deepest schema path
// (an element of topology.dass[].jobs[].produce[]) nests 8 containers;
// the bound keeps the recursive decode's stack small on hostile input.
const maxJSONDepth = 32

// decodeJSONValue consumes one JSON value, nested depth levels deep,
// from the decoder.
func decodeJSONValue(dec *json.Decoder, lines *lineIndex, source string, depth int) (*value, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, jsonError(err, lines, source)
	}
	// The offset points just past the token — close enough for the line of
	// scalar tokens and opening delimiters.
	line := lines.line(dec.InputOffset())
	switch t := tok.(type) {
	case json.Delim:
		if depth >= maxJSONDepth {
			return nil, errf(source, line, "", "nesting deeper than %d levels", maxJSONDepth)
		}
		switch t {
		case '{':
			obj := newObject()
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, jsonError(err, lines, source)
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, errf(source, lines.line(dec.InputOffset()), "", "object key must be a string, got %v", keyTok)
				}
				keyLine := lines.line(dec.InputOffset())
				val, err := decodeJSONValue(dec, lines, source, depth+1)
				if err != nil {
					return nil, err
				}
				if _, dup := obj.get(key); dup {
					return nil, errf(source, keyLine, key, "duplicate key")
				}
				// The key's line is the authoritative position of the field.
				val.line = keyLine
				obj.set(key, val)
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, jsonError(err, lines, source)
			}
			return &value{raw: obj, line: line}, nil
		case '[':
			var arr []*value
			for dec.More() {
				elem, err := decodeJSONValue(dec, lines, source, depth+1)
				if err != nil {
					return nil, err
				}
				arr = append(arr, elem)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, jsonError(err, lines, source)
			}
			return &value{raw: arr, line: line}, nil
		}
		return nil, errf(source, line, "", "unexpected delimiter %v", t)
	case string:
		return &value{raw: t, line: line}, nil
	case bool:
		return &value{raw: t, line: line}, nil
	case nil:
		return &value{raw: nil, line: line}, nil
	case json.Number:
		// Integers stay integers: schema fields that require ints reject
		// floats, and 1e3-style notation is accepted for float fields only.
		if i, err := t.Int64(); err == nil && !strings.ContainsAny(t.String(), ".eE") {
			return &value{raw: i, line: line}, nil
		}
		f, err := t.Float64()
		if err != nil {
			return nil, errf(source, line, "", "invalid number %q", t.String())
		}
		return &value{raw: f, line: line}, nil
	}
	return nil, errf(source, line, "", "unexpected token %v", tok)
}

// jsonError converts an encoding/json error into a line-addressed Error.
func jsonError(err error, lines *lineIndex, source string) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return errf(source, lines.line(syn.Offset), "", "syntax error: %s", syn.Error())
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errf(source, lines.last(), "", "unexpected end of document")
	}
	return errf(source, 0, "", "%s", err.Error())
}

// lineIndex maps byte offsets to 1-based line numbers.
type lineIndex struct {
	// starts[i] is the byte offset where line i+1 begins.
	starts []int64
}

func newLineIndex(data []byte) *lineIndex {
	idx := &lineIndex{starts: []int64{0}}
	for i, b := range data {
		if b == '\n' {
			idx.starts = append(idx.starts, int64(i+1))
		}
	}
	return idx
}

func (idx *lineIndex) line(offset int64) int {
	lo, hi := 0, len(idx.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if idx.starts[mid] <= offset {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo + 1
}

func (idx *lineIndex) last() int { return len(idx.starts) }
