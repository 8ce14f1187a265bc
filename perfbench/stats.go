package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/qsim"
)

// quantile is the nearest-rank q-quantile: with n samples, at least
// n − ⌈q·n⌉ samples lie beyond it (10 of 100 for q = 0.9).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// counters is a snapshot of every counter the program exports that the
// benchmark reads: engine pass telemetry, the par scheduler, the dist
// transport, and the Go runtime.
type counters struct {
	qsim                       qsim.PassStats
	par                        par.SchedStats
	dist                       map[string]int64
	allocs, allocBytes, gcRuns uint64
	gcPauseCPU                 float64 // seconds of CPU with the world stopped for GC
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/pause:cpu-seconds"},
}

// read fills c. A step's window opens with read(false) and closes with
// read(true): the runtime counters are read last on the way in and first on
// the way out, so the other reads' allocations fall outside the window.
func (c *counters) read(closing bool) {
	if closing {
		c.readRuntime()
	}
	c.qsim = qsim.EngineStats()
	c.par = par.Stats()
	if c.dist == nil {
		c.dist = map[string]int64{}
	}
	dist.Collect(func(name string, v int64) { c.dist[name] = v })
	if !closing {
		c.readRuntime()
	}
}

func (c *counters) readRuntime() {
	metrics.Read(rtSamples)
	c.allocs = rtSamples[0].Value.Uint64()
	c.allocBytes = rtSamples[1].Value.Uint64()
	c.gcRuns = rtSamples[2].Value.Uint64()
	c.gcPauseCPU = rtSamples[3].Value.Float64()
}

// tally accumulates counter deltas over a set of steps.
type tally struct {
	steps                                           int
	fwdPasses, bwdPasses, fwdNS, bwdNS              uint64
	regions, groups, steals                         uint64
	allocs, allocBytes, gcRuns                      uint64
	gcPauseCPU                                      float64
	bytesOut, bytesIn, batches, shards, latNS       int64
	affRouted, affMissed, redispatched, tapeNodeSum int64
}

func (t *tally) add(a, b *counters, tapeNodes int) {
	t.steps++
	t.fwdPasses += b.qsim.FwdPasses - a.qsim.FwdPasses
	t.bwdPasses += b.qsim.BwdPasses - a.qsim.BwdPasses
	t.fwdNS += b.qsim.FwdNanos - a.qsim.FwdNanos
	t.bwdNS += b.qsim.BwdNanos - a.qsim.BwdNanos
	t.regions += b.par.Regions - a.par.Regions
	t.groups += b.par.Groups - a.par.Groups
	t.steals += b.par.Steals - a.par.Steals
	t.allocs += b.allocs - a.allocs
	t.allocBytes += b.allocBytes - a.allocBytes
	t.gcRuns += b.gcRuns - a.gcRuns
	t.gcPauseCPU += b.gcPauseCPU - a.gcPauseCPU
	d := func(k string) int64 { return b.dist[k] - a.dist[k] }
	t.bytesOut += d("dist.bytes_out")
	t.bytesIn += d("dist.bytes_in")
	t.batches += d("dist.batches")
	t.shards += d("dist.shards_done")
	t.latNS += d("dist.lat_sum_ns")
	t.affRouted += d("dist.aff_routed")
	t.affMissed += d("dist.aff_missed")
	t.redispatched += d("dist.redispatched")
	t.tapeNodeSum += int64(tapeNodes)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is user+sys CPU of this process plus its live children (the dist
// worker), which getrusage does not count until they are reaped.
func cpuTime(children []int) time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid who and pointer
	d := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, pid := range children {
		d += procCPU(pid)
	}
	return d
}

// procCPU reads a process's utime+stime from /proc/<pid>/stat (clock ticks,
// 100 per second on Linux).
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

// children lists this process's live child processes.
func children() []int {
	var pids []int
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(f); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// waitChildren waits until every child process has exited and been reaped.
func waitChildren(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for len(children()) > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// rssPeakMB is this process's peak resident set plus each live child's.
func rssPeakMB(kids []int) float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid who and pointer
	kb := ru.Maxrss
	for _, pid := range kids {
		kb += procHWM(pid)
	}
	return float64(kb) / 1024
}

func procHWM(pid int) int64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) > 0 {
				v, _ := strconv.ParseInt(fs[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// cpuModel names the CPU for the environment record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostSteal reads the machine-wide CPU tick counters from /proc/stat: the
// ticks the hypervisor stole from this VM's CPUs, and all ticks.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// unstolen returns the share of a period the hypervisor left this VM's CPUs,
// given hostSteal readings at its start and end.
func unstolen(s0, t0, s1, t1 int64) float64 {
	return 1 - ratio(float64(s1-s0), float64(t1-t0))
}
