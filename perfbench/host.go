package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// refs.json holds the digest of each workload's simulated output for the
// seeds it was recorded at. A run at one of those seeds must reproduce
// it; at any other seed the passes of one run must agree with each
// other, and the printed digest can be compared across commits.
//
//go:embed refs.json
var refsJSON []byte

func reference(workload string, seed int64) (string, bool) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		panic("perfbench: refs.json: " + err.Error())
	}
	d, ok := refs[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// sourceFingerprint hashes the module's Go sources and go.mod files, so
// a report identifies the code it measured even in a checkout that is
// not a git repository.
func sourceFingerprint(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit reads HEAD from root's .git directory without running git,
// or reports that there is none.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + ")"
}
