package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the checks and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	selected, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *list {
		for _, c := range selected {
			fmt.Printf("simlint/%-12s [%s] %s\n", c.Name, c.Scope, c.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, selected)
	cwd, _ := os.Getwd()
	for i := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Pos.Filename = rel
			}
		}
	}
	if *jsonOut {
		type jsonDiag struct {
			Check   string `json:"check"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Message string `json:"message"`
		}
		out := make([]jsonDiag, len(diags)) // [] not null when clean
		for i, d := range diags {
			out[i] = jsonDiag{
				Check: d.Check, File: d.Pos.Filename,
				Line: d.Pos.Line, Column: d.Pos.Column,
				Message: d.Message,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("simlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
