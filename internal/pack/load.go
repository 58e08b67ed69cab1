package pack

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	root, err := parseJSON(data, source)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(root, source)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
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
