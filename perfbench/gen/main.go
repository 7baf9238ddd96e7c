// Command gen writes the upload fixtures the daemon_zipf workload posts
// as SASS text and as cubin containers: a fixed set of kernels, each
// lowered for sm_70 and sm_80. Run it from the perfbench directory after
// a change to the SASS printer or the cubin format:
//
//	go run ./gen -out fixtures
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpuscout"
	"gpuscout/perfbench/internal/plan"
)

func main() {
	out := flag.String("out", "fixtures", "directory to write the fixtures to")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, u := range plan.UploadKernels {
		for _, archName := range plan.UploadArches {
			arch, err := gpuscout.ArchByName(archName)
			if err != nil {
				fatal(err)
			}
			w, err := gpuscout.BuildWorkloadArch(u, 0, arch)
			if err != nil {
				fatal(err)
			}
			base := filepath.Join(*out, plan.UploadName(u, archName))
			if err := os.WriteFile(base+".sass", []byte(gpuscout.PrintSASS(w.Kernel)), 0o644); err != nil {
				fatal(err)
			}
			bin := &gpuscout.Binary{Arch: arch.SM, Kernels: []*gpuscout.Kernel{w.Kernel}}
			if err := gpuscout.SaveCubin(base+".cubin", bin); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gen:", err)
	os.Exit(1)
}
