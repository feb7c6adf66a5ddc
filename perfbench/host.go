package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every report: the numbers it carries only
// compare against runs on the same host, toolchain and source.
type hostInfo struct {
	Host       string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	StateFS    string
}

func gatherHost(root, stateDir string) hostInfo {
	h, _ := os.Hostname()
	return hostInfo{
		Host:       h,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(root),
		StateFS:    fsType(stateDir),
	}
}

// commitID names the source under test: the git HEAD when the tree is a
// repository, otherwise a digest of its Go sources and module files (a
// plain checkout has no history to name it by).
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	sum := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(sum, p)
		io.Copy(sum, f)
		return nil
	})
	return "src-" + hex.EncodeToString(sum.Sum(nil))[:16]
}

// fsType names the filesystem holding dir. The audit log and the result
// store fsync on the request path, so tmpfs and disk give different
// serve numbers.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strings.ToLower(strings.TrimLeft(hex.EncodeToString([]byte{
		byte(uint64(st.Type) >> 24), byte(uint64(st.Type) >> 16), byte(uint64(st.Type) >> 8), byte(st.Type)}), "0"))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return atof(f[0]) / 1024
			}
		}
	}
	return 0
}

// stealSeconds is the CPU time the hypervisor has taken from this
// machine's CPUs so far (the steal column of /proc/stat), in seconds.
// A run reports how much of it fell inside the run: time the program
// was runnable but not running, which no change to it can remove.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	return atof(f[8]) / 100 // USER_HZ
}

// procCPU is the CPU time all threads of process pid have run so far,
// read from each thread's schedstat (nanoseconds, and not charged for
// time the hypervisor stole).
func procCPU(pid int) time.Duration {
	tasks, err := os.ReadDir(filepath.Join("/proc", itoa(pid), "task"))
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join("/proc", itoa(pid), "task", t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			total += time.Duration(atof(f[0]))
		}
	}
	return total
}

// userTime is the process's user-mode CPU time so far.
func userTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procTicks is the user and system CPU time of process pid so far, from
// /proc/<pid>/stat, threads that have exited included. The kernel splits
// the process's run time between the two by sampling at its tick, so
// the split is exact only over many ticks.
func procTicks(pid int) (user, sys time.Duration) {
	data, err := os.ReadFile(filepath.Join("/proc", itoa(pid), "stat"))
	if err != nil {
		return 0, 0
	}
	// The command name, field 2, may hold spaces; the fields after it
	// start at the last ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0
	}
	const tick = time.Second / 100 // USER_HZ
	return time.Duration(atof(f[11])) * tick, time.Duration(atof(f[12])) * tick
}
