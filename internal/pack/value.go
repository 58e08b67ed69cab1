package pack

import (
	"fmt"
	"sort"
	"strings"
)

// value is one node of the parsed JSON document tree. It keeps what
// encoding/json's own types drop: key order and source lines, so schema
// decoding and validation can address errors by line. raw is nil, bool,
// string, int64, float64, []*value, or *object; line is the 1-based
// source line of the node.
type value struct {
	raw  any
	line int
}

// object is a key-ordered map node. Insertion order is preserved so
// error messages walk the document top to bottom.
type object struct {
	keys []string
	vals map[string]*value
}

func newObject() *object {
	return &object{vals: make(map[string]*value)}
}

func (o *object) set(key string, v *value) {
	if _, dup := o.vals[key]; !dup {
		o.keys = append(o.keys, key)
	}
	o.vals[key] = v
}

func (o *object) get(key string) (*value, bool) {
	v, ok := o.vals[key]
	return v, ok
}

// Error is one manifest load failure, addressed by source file, line and
// field path — "packs/x.json:12: faults[2].rate: must be in (0, 1]".
type Error struct {
	Source string // file the manifest came from ("" for in-memory)
	Line   int    // 1-based source line (0 when unknown)
	Field  string // dotted field path ("" for document-level errors)
	Msg    string
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.Source != "" {
		b.WriteString(e.Source)
		b.WriteString(":")
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "%d:", e.Line)
	}
	if b.Len() > 0 {
		b.WriteString(" ")
	}
	if e.Field != "" {
		b.WriteString(e.Field)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// errf builds a field-addressed Error.
func errf(source string, line int, field, format string, args ...any) *Error {
	return &Error{Source: source, Line: line, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// typeName names a value's dynamic type for error messages.
func typeName(v *value) string {
	switch v.raw.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case string:
		return "string"
	case int64:
		return "integer"
	case float64:
		return "float"
	case []*value:
		return "array"
	case *object:
		return "object"
	}
	return fmt.Sprintf("%T", v.raw)
}

// sortedKeys returns an object's keys sorted — for "unknown field"
// suggestions in error messages.
func sortedKeys(known map[string]bool) string {
	keys := make([]string, 0, len(known))
	for k := range known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
