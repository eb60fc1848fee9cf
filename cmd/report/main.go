// Command report renders the CSV artifacts of cmd/experiments into
// markdown tables on stdout:
//
//	go run ./cmd/report -in results/full
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"irfusion/internal/report"
)

func main() {
	log.SetFlags(0)
	in := flag.String("in", "results/full", "directory with experiment CSVs")
	flag.Parse()

	entries, err := os.ReadDir(*in)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(*in, e.Name()))
		if err != nil {
			log.Fatal(err)
		}
		md, err := report.CSVToMarkdown(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", e.Name(), err)
		}
		fmt.Printf("### %s\n\n%s\n", e.Name(), md)
	}
}
