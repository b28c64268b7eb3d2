package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a process resource reading: CPU time, allocation count and GC
// work, taken at one instant.
type usage struct {
	wall    time.Time
	wallDur time.Duration // set on deltas only
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pauseNs uint64
	// steal and hostTicks are the host-wide /proc/stat CPU times (in
	// clock ticks) a hypervisor gave to other guests, and in total.
	steal, hostTicks uint64
}

// stealPct is the share of the host's CPU time stolen by other guests
// over a delta: a busy host, not the code, when it is high.
func (u usage) stealPct() float64 {
	if u.hostTicks == 0 {
		return 0
	}
	return 100 * float64(u.steal) / float64(u.hostTicks)
}

// hostCPU reads the aggregate cpu line of /proc/stat: steal ticks and
// the sum of all ticks. Zeros where the file is unavailable.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. Time the hypervisor gives to other guests is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := hostCPU()
	return usage{
		steal:     steal,
		hostTicks: ticks,
		wall:      time.Now(),
		cpu:       cpuTime(),
		mallocs:   ms.Mallocs,
		numGC:     ms.NumGC,
		pauseNs:   ms.PauseTotalNs,
	}
}

// since returns what the process consumed between prev and u; wallDur
// holds the elapsed wall time.
func (u usage) since(prev usage) usage {
	return usage{
		wall:      u.wall,
		wallDur:   u.wall.Sub(prev.wall),
		cpu:       u.cpu - prev.cpu,
		mallocs:   u.mallocs - prev.mallocs,
		numGC:     u.numGC - prev.numGC,
		pauseNs:   u.pauseNs - prev.pauseNs,
		steal:     u.steal - prev.steal,
		hostTicks: u.hostTicks - prev.hostTicks,
	}
}

// plus adds two deltas: the usage of two windows taken together.
func (u usage) plus(o usage) usage {
	return usage{
		wall:      u.wall,
		wallDur:   u.wallDur + o.wallDur,
		cpu:       u.cpu + o.cpu,
		mallocs:   u.mallocs + o.mallocs,
		numGC:     u.numGC + o.numGC,
		pauseNs:   u.pauseNs + o.pauseNs,
		steal:     u.steal + o.steal,
		hostTicks: u.hostTicks + o.hostTicks,
	}
}

// hostReport identifies where and on what code a result was measured, so
// that results from different hosts are never compared by mistake.
type hostReport struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Network    string `json:"network"`
}

func readHost(root, loopback string) hostReport {
	return hostReport{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		Network:    "loopback TCP (" + loopback + "), not a real link",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory at root without running git;
// a checkout that is not a repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file of the program under
// test (the module at root, not the benchmark), identifying the code a
// result belongs to even where no commit is known.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
