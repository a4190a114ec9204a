package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spiderkv subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

// fleet owns every subprocess a workload starts, so one call stops them
// all whatever path the workload leaves by.
type fleet struct {
	bin string // spiderkv binary

	mu      sync.Mutex
	daemons []*daemon
}

// startKV boots one spiderkv on a kernel-chosen loopback port and waits
// for the line announcing its address. Only the deployment flags are
// passed (-listen -join -replicas -capacity -gossip): the store and
// admission defaults are part of what the benchmark measures.
func (f *fleet) startKV(join string, capacity int) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-replicas", "2", "-gossip", "100ms"}
	if join != "" {
		args = append(args, "-join", join)
	}
	if capacity > 0 {
		args = append(args, "-capacity", strconv.Itoa(capacity))
	}
	cmd := exec.Command(f.bin, args...)
	// Own process group, and killed by the kernel if the harness dies
	// without running its deferred stop (SIGKILL, a crash on another
	// goroutine): no daemon or port outlives the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", f.bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "spiderkv: serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait() // exit status of a killed daemon carries nothing
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("spiderkv exited before announcing its address")
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("spiderkv did not announce its address within 10s")
	}
}

// startCluster boots n nodes joined through the first and waits until
// every node lists all n members.
func (f *fleet) startCluster(n, capacity int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		join := ""
		if i > 0 {
			join = addrs[0]
		}
		d, err := f.startKV(join, capacity)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, d.addr)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for _, a := range addrs {
			rep, err := roundTrip(a, "NODES")
			if err != nil || rep.Kind != replyNodes || len(rep.Nodes) != n {
				converged = false
				break
			}
		}
		if converged {
			return addrs, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster of %d did not converge within 15s", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pids lists the live daemons' process ids.
func (f *fleet) pids() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.daemons))
	for i, d := range f.daemons {
		out[i] = d.cmd.Process.Pid
	}
	return out
}

// stop kills every daemon's process group and waits for each to end.
func (f *fleet) stop() {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for _, d := range ds {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	for _, d := range ds {
		<-d.done
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux the benchmark runs on.
const clockTick = 100

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTick
}

// cpuSecondsAll sums cpuSeconds over pids.
func cpuSecondsAll(pids []int) float64 {
	var s float64
	for _, p := range pids {
		s += cpuSeconds(p)
	}
	return s
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// peakRSSAll sums peakRSSMiB over pids.
func peakRSSAll(pids []int) float64 {
	var s float64
	for _, p := range pids {
		s += peakRSSMiB(p)
	}
	return s
}
