package pack

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// MaxManifestBytes bounds a manifest file; packs are configuration, not
// data, and a runaway file should fail early.
const MaxManifestBytes = 1 << 20

// Parse decodes and validates a JSON manifest from raw bytes. source
// names the document in error locations; its extension is not consulted.
func Parse(data []byte, source string) (*Manifest, error) {
	if len(data) > MaxManifestBytes {
		return nil, errf(source, 0, "", "manifest is %d bytes (limit %d)", len(data), MaxManifestBytes)
	}
	m, err := decode(data, source)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
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
	var loc string
	if e.Source != "" {
		loc = e.Source + ":"
	}
	if e.Line > 0 {
		loc += strconv.Itoa(e.Line) + ":"
	}
	if loc != "" {
		loc += " "
	}
	if e.Field != "" {
		loc += e.Field + ": "
	}
	return loc + e.Msg
}

// errf builds a field-addressed Error.
func errf(source string, line int, field, format string, args ...any) *Error {
	return &Error{Source: source, Line: line, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Load reads, decodes and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return Parse(data, path)
}

// Discover lists the manifest files (.json) directly under dir, sorted
// by name — the shipped pack library under packs/.
func Discover(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name := e.Name(); strings.HasSuffix(name, ".json") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// ErrNoPacksDir is LoadDir's error when no packs/ directory lies above
// the working directory.
var ErrNoPacksDir = errors.New("no packs/ directory found")

// LoadDir loads every manifest under dir (Discover, then Load each, in
// name order) and returns them with the directory it read. An empty dir
// means the nearest packs/ directory upward from the working directory
// (FindPacksDir). It stops at the first manifest that fails to load.
func LoadDir(dir string) (string, []*Manifest, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", nil, err
		}
		d, ok := FindPacksDir(wd)
		if !ok {
			return "", nil, fmt.Errorf("%w above %s", ErrNoPacksDir, wd)
		}
		dir = d
	}
	files, err := Discover(dir)
	if err != nil {
		return dir, nil, err
	}
	ms := make([]*Manifest, 0, len(files))
	for _, f := range files {
		m, err := Load(f)
		if err != nil {
			return dir, nil, err
		}
		ms = append(ms, m)
	}
	return dir, ms, nil
}

// FindPacksDir locates the repository's packs/ directory by walking up
// from dir (tests and experiments run from their package directory, the
// CLIs from anywhere inside the checkout). The repo root is recognized
// by its go.mod.
func FindPacksDir(dir string) (string, bool) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", false
	}
	for {
		packs := filepath.Join(abs, "packs")
		if st, err := os.Stat(packs); err == nil && st.IsDir() {
			return packs, true
		}
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return "", false
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", false
		}
		abs = parent
	}
}
