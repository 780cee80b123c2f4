package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Host identifies the machine and build a record was measured on.
// Records from hosts that differ in any of these fields are not
// comparable: compareRecords refuses them instead of printing ratios.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	OSArch     string `json:"osArch"`
	// Commit is the VCS revision stamped into the binary, "unknown"
	// when it was built outside a git work tree.
	Commit string `json:"commit"`
}

func currentHost() Host {
	h := Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// sameHost reports the first field in which two hosts differ; the
// commit is expected to differ and is not compared.
func sameHost(a, b Host) error {
	switch {
	case a.Cores != b.Cores:
		return fmt.Errorf("cores differ: %d vs %d", a.Cores, b.Cores)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go version differs: %s vs %s", a.GoVersion, b.GoVersion)
	case a.CPUModel != b.CPUModel:
		return fmt.Errorf("CPU model differs: %q vs %q", a.CPUModel, b.CPUModel)
	case a.OSArch != b.OSArch:
		return fmt.Errorf("OS/arch differs: %s vs %s", a.OSArch, b.OSArch)
	}
	return nil
}
