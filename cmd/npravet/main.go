// Command npravet is the multichecker driver for the repository's
// invariant analyzers (internal/analyzers): the syntactic passes
// (detlint, errtaxonomy, panicfree, ctxplumb, sleeplint), the aliasing
// passes (poolalias, cachealias, frozenfunc) and the concurrency trio
// (lockorder, goleak, atomicmix) on the CFG/dataflow layer, plus
// verification of the //lint:ignore / //lint:invariant directives
// themselves.
//
// Usage:
//
//	npravet [-list] [-run name,...] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. npravet
// analyzes non-test sources (test files are exempt from every invariant
// by design). -run restricts the run to a comma-separated subset of
// analyzers (directive verification of unused suppressions is skipped
// for partial runs, since absent analyzers cannot consume directives).
// -json emits findings as a JSON array on stdout instead of the
// plain-text lines, for the CI artifact upload; exit status is
// unchanged. Exit status is 1 when any diagnostic survives
// suppression, 2 on operational failure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"npra/internal/analyzers"
	"npra/internal/analyzers/anz"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: npravet [-list] [-run name,...] [-json] [packages]\n\nEnforces the allocator's invariants statically; see docs/INTERNALS.md.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analyzers.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runNames != "" {
		var err error
		suite, err = filterSuite(suite, *runNames)
		if err != nil {
			fmt.Fprintln(os.Stderr, "npravet:", err)
			os.Exit(2)
		}
	}

	modDir, modPath, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "npravet:", err)
		os.Exit(2)
	}
	pats := flag.Args()
	if len(pats) == 0 {
		pats = []string{"./..."}
	}
	cfg := &anz.LoadConfig{ModulePath: modPath, ModuleDir: modDir}
	pkgs, err := cfg.Load(pats...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npravet:", err)
		os.Exit(2)
	}
	diags, err := anz.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npravet:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		pos := &diags[i].Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
	}
	if *asJSON {
		emitJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "npravet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// filterSuite restricts the suite to the named analyzers, rejecting
// unknown names so a typo fails loudly instead of passing vacuously.
func filterSuite(suite []*anz.Analyzer, names string) ([]*anz.Analyzer, error) {
	byName := make(map[string]*anz.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*anz.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

// jsonFinding is the -json output schema, consumed by the CI artifact
// upload; field names are stable.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emitJSON(diags []anz.Diagnostic) {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "npravet:", err)
		os.Exit(2)
	}
}

// findModule walks up from the working directory to the enclosing
// go.mod and returns its directory and module path.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			f, err := os.Open(gomod)
			if err != nil {
				return "", "", err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}
