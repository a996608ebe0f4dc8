// Command ringvet runs the repository's proof-obligation analyzers
// (internal/lint) over Go packages, as a multichecker over package patterns:
//
//	go run ./cmd/ringvet ./...
//
// Every diagnostic prints as file:line:col: [analyzer] message and a
// non-empty report exits non-zero, so CI fails on any finding.  Suppressions
// use //ringvet:allow (see internal/lint/analysis).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ringsym/internal/lint"
	"ringsym/internal/lint/analysis"
)

func main() {
	listFlag := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ringvet [packages...]  (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringvet:", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
