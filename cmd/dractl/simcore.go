package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/simbench"
)

// benchSimcore runs the DES-core hot-path benchmarks entirely in
// process — no drad server is involved — and writes this host's
// numbers.
func benchSimcore(fs *flag.FlagSet, args []string) int {
	out := fs.String("out", "BENCH_simcore.json", "benchmark artifact path")
	fs.Parse(args)

	fmt.Fprintln(os.Stderr, "dractl: bench simcore: rare-event loop, deliver path, scheduler ops")
	doc := simbench.Run()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("simcore bench (this host):")
	for _, b := range doc.Benchmarks {
		fmt.Printf("  %-22s %12.1f ns/op  %6g allocs/op\n", b.Name, b.NsPerOp, b.AllocsPerOp)
	}
	for name, allocs := range doc.SteadyStateAllocs {
		fmt.Printf("  steady-state allocs %-18s %g\n", name, allocs)
	}
	fmt.Printf("wrote %s\n", *out)
	return lc.Exit(cli.ExitOK)
}
