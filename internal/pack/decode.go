package pack

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// defaults holds the starting value of every manifest type whose unset
// fields do not mean zero. A JSON object decodes onto a copy of its
// type's entry (or the zero value), so absent keys keep the default.
var defaults = map[reflect.Type]any{
	reflect.TypeFor[Manifest]():      Manifest{Expect: defaultExpect},
	reflect.TypeFor[Expect]():        defaultExpect,
	reflect.TypeFor[Topology]():      Topology{DiagNode: -1},
	reflect.TypeFor[ComponentSpec](): ComponentSpec{ID: -1},
	reflect.TypeFor[NetworkSpec]():   NetworkSpec{Kind: "tt"},
	reflect.TypeFor[EndpointSpec]():  EndpointSpec{Node: -1},
	reflect.TypeFor[JobSpec](): JobSpec{Component: -1, PhysMin: -10, PhysMax: 110, FrozenWindow: 20,
		Gain: 1, InMax: 100, MeanPerRound: 1, Tolerance: 1},
	reflect.TypeFor[ProduceSpec]():  ProduceSpec{Max: 100},
	reflect.TypeFor[FaultSpec]():    FaultSpec{Component: -1},
	reflect.TypeFor[EnvProfile]():   EnvProfile{Intensity: 0.5},
	reflect.TypeFor[CampaignSpec](): CampaignSpec{FaultFreeShare: 0.2, FaultsPerVehicle: 1},
}

// defaultExpect leaves the optional bounds unchecked and gates DECOS at
// a full score.
var defaultExpect = Expect{MaxFalseAlarms: -1, MaxNFFRatio: -1, MinScore: 1}

// decoder reads one manifest straight from encoding/json's token stream
// into the Manifest type, checking every value against its Go type as it
// is read. Structure comes from the types themselves: object keys are
// the fields' json tags, so the recursion is never deeper than the type
// and the first error in document order ends the decode. Semantic rules
// (ranges, cross-references) are Validate's.
type decoder struct {
	dec    *json.Decoder
	source string
	// starts[i] is the byte offset where line i+1 begins; encoding/json
	// reports offsets, not positions, so the mapping is ours.
	starts []int64
}

// decode parses data into a Manifest without validating it.
func decode(data []byte, source string) (*Manifest, error) {
	d := &decoder{dec: json.NewDecoder(bytes.NewReader(data)), source: source, starts: []int64{0}}
	d.dec.UseNumber()
	for i, b := range data {
		if b == '\n' {
			d.starts = append(d.starts, int64(i+1))
		}
	}
	var m Manifest
	if err := d.value(reflect.ValueOf(&m).Elem(), "", 0); err != nil {
		return nil, err
	}
	if tok, err := d.dec.Token(); err != io.EOF {
		if err != nil {
			return nil, d.syntax(err)
		}
		return nil, d.fail(d.line(d.dec.InputOffset()), "", "unexpected trailing content %v after document", tok)
	}
	m.Source = source
	return &m, nil
}

func (d *decoder) fail(line int, field, format string, args ...any) error {
	return errf(d.source, line, field, format, args...)
}

// line maps a byte offset to its 1-based line.
func (d *decoder) line(offset int64) int {
	return sort.Search(len(d.starts), func(i int) bool { return d.starts[i] > offset })
}

// syntax converts an encoding/json error into a line-addressed Error.
func (d *decoder) syntax(err error) error {
	var syn *json.SyntaxError
	switch {
	case errors.As(err, &syn):
		return d.fail(d.line(syn.Offset), "", "syntax error: %s", syn.Error())
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return d.fail(len(d.starts), "", "unexpected end of document")
	}
	return d.fail(0, "", "%s", err.Error())
}

// value decodes the next JSON value into v under the field path. line
// addresses type errors: an object member's key line, or 0 for the line
// of the value's first token (array elements and the document itself).
func (d *decoder) value(v reflect.Value, path string, line int) error {
	tok, err := d.dec.Token()
	if err != nil {
		return d.syntax(err)
	}
	if line == 0 {
		// The offset points just past the token — close enough for the
		// line of scalars and opening delimiters.
		line = d.line(d.dec.InputOffset())
	}
	if delim, ok := tok.(json.Delim); ok {
		return d.container(v, delim, path, line)
	}
	x, err := scalar(tok)
	if err != nil {
		return d.fail(line, path, "invalid number %q", tok)
	}
	switch v.Kind() {
	case reflect.String:
		if s, ok := x.(string); ok {
			v.SetString(s)
			return nil
		}
	case reflect.Bool:
		if b, ok := x.(bool); ok {
			v.SetBool(b)
			return nil
		}
	case reflect.Int, reflect.Int64:
		if i, ok := x.(int64); ok {
			v.SetInt(i)
			return nil
		}
	case reflect.Uint64:
		if i, ok := x.(int64); ok {
			if i < 0 {
				return d.fail(line, path, "must be non-negative, got %d", i)
			}
			v.SetUint(uint64(i))
			return nil
		}
		// Seeds span the whole uint64 range, past int64's.
		if n, ok := tok.(json.Number); ok {
			if u, err := strconv.ParseUint(string(n), 10, 64); err == nil {
				v.SetUint(u)
				return nil
			}
		}
	case reflect.Float64:
		// Integer literals are numbers too: a pack author writing
		// `"rate": 1` should not be told 1 is not a number.
		switch n := x.(type) {
		case float64:
			v.SetFloat(n)
			return nil
		case int64:
			v.SetFloat(float64(n))
			return nil
		}
	}
	return d.mismatch(v, path, line, typeName(x))
}

// container decodes an array into a slice, or an object into a struct,
// map or pointer to struct, then consumes the closing delimiter.
func (d *decoder) container(v reflect.Value, delim json.Delim, path string, line int) error {
	switch kind := v.Kind(); {
	case delim == '[' && kind == reflect.Slice:
		s := reflect.Zero(v.Type())
		for i := 0; d.dec.More(); i++ {
			elem := reflect.New(v.Type().Elem()).Elem()
			if err := d.value(elem, fmt.Sprintf("%s[%d]", path, i), 0); err != nil {
				return err
			}
			s = reflect.Append(s, elem)
		}
		v.Set(s)
	case delim == '{' && kind == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return d.container(v.Elem(), delim, path, line)
	case delim == '{' && (kind == reflect.Struct || kind == reflect.Map):
		if err := d.members(v, path); err != nil {
			return err
		}
	case delim == '[':
		return d.mismatch(v, path, line, "array")
	default:
		return d.mismatch(v, path, line, "object")
	}
	if _, err := d.dec.Token(); err != nil {
		return d.syntax(err)
	}
	return nil
}

// members decodes an object's members into a struct, matched by json
// tag, or into a map. Unknown and repeated keys fail at the key's line.
func (d *decoder) members(v reflect.Value, path string) error {
	switch def, ok := defaults[v.Type()]; {
	case ok:
		v.Set(reflect.ValueOf(def))
	case v.Kind() == reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	default:
		v.SetZero()
	}
	seen := map[string]bool{}
	for d.dec.More() {
		tok, err := d.dec.Token()
		if err != nil {
			return d.syntax(err)
		}
		line := d.line(d.dec.InputOffset())
		key, _ := tok.(string) // Token yields only strings as object keys
		field := key
		if path != "" {
			field = path + "." + key
		}
		if seen[key] {
			return d.fail(line, field, "duplicate key")
		}
		seen[key] = true
		if v.Kind() == reflect.Map {
			elem := reflect.New(v.Type().Elem()).Elem()
			if err := d.value(elem, field, line); err != nil {
				return err
			}
			v.SetMapIndex(reflect.ValueOf(key), elem)
			continue
		}
		f, known := fieldByTag(v, key)
		if !f.IsValid() {
			return d.fail(line, field, "unknown field (known fields: %s)", known)
		}
		if err := d.value(f, field, line); err != nil {
			return err
		}
	}
	return nil
}

// fieldByTag returns the struct field whose json tag is key or, when
// there is none, the invalid Value and the sorted list of known keys.
func fieldByTag(v reflect.Value, key string) (reflect.Value, string) {
	var known []string
	for i := 0; i < v.NumField(); i++ {
		switch tag := v.Type().Field(i).Tag.Get("json"); tag {
		case "-":
		case key:
			return v.Field(i), ""
		default:
			known = append(known, tag)
		}
	}
	sort.Strings(known)
	return reflect.Value{}, strings.Join(known, ", ")
}

// mismatch reports a value whose JSON type (got) does not fit v's type.
func (d *decoder) mismatch(v reflect.Value, path string, line int, got string) error {
	want := "an integer"
	switch t := v.Type(); t.Kind() {
	case reflect.String:
		want = "a string"
	case reflect.Bool:
		want = "a bool"
	case reflect.Float64:
		want = "a number"
	case reflect.Struct, reflect.Map, reflect.Pointer:
		want = "an object"
	case reflect.Slice:
		want = "an array of integers"
		if t.Elem().Kind() == reflect.Struct {
			want = "an array of objects"
		}
	}
	return d.fail(line, path, "expected %s, got %s", want, got)
}

// scalar types a scalar token the way the schema reads it: nil, bool,
// string, int64 (an integer literal within int64's range) or float64.
func scalar(tok json.Token) (any, error) {
	n, ok := tok.(json.Number)
	if !ok {
		return tok, nil
	}
	if i, err := n.Int64(); err == nil {
		return i, nil
	}
	return n.Float64()
}

// typeName names a scalar's JSON type for error messages.
func typeName(x any) string {
	switch x.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case string:
		return "string"
	case int64:
		return "integer"
	}
	return "float"
}
