package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one wfserver process. The benchmark binds it to ephemeral ports
// and learns them from its log, so a server left over from another run can
// never take this run's load.
type child struct {
	cmd       *exec.Cmd
	addr      string // KV protocol address
	statsAddr string // /stats address
	exited    chan struct{}
	logMu     sync.Mutex
	logTail   []string
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// killChildren kills every server still running and waits for it; main
// calls it on every exit path.
func killChildren() {
	childrenMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childrenMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// startServer launches wfserver with args plus ephemeral listen addresses
// and waits until it logs both of them (after any log replay) or exits.
func startServer(bin string, args []string, gomaxprocs int) (*child, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// Pdeathsig kills the server if the benchmark itself dies uncleanly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.logMu.Lock()
			c.logTail = append(c.logTail, line)
			if len(c.logTail) > 20 {
				c.logTail = c.logTail[1:]
			}
			c.logMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				a[0] = strings.Fields(line[i+len("listening on "):])[0]
			}
			if i := strings.Index(line, "stats on http://"); i >= 0 {
				a[1] = strings.TrimSuffix(line[i+len("stats on http://"):], "/stats")
				addrs <- a
			}
		}
		cmd.Wait()
		close(c.exited)
	}()
	select {
	case a := <-addrs:
		c.addr, c.statsAddr = a[0], a[1]
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("wfserver exited during start-up: %s", c.log())
	case <-time.After(150 * time.Second):
		c.kill()
		return nil, errors.New("wfserver did not start within 150 s")
	}
}

func (c *child) log() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return strings.Join(c.logTail, " | ")
}

// alive fails if the server has exited on its own.
func (c *child) alive() error {
	select {
	case <-c.exited:
		return fmt.Errorf("wfserver exited unexpectedly: %s", c.log())
	default:
		return nil
	}
}

// kill sends SIGKILL (the crash the durable workload recovers from) and
// waits until the process is gone.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
	childrenMu.Lock()
	delete(children, c)
	childrenMu.Unlock()
}

// vmHWM is the process's peak resident set in MB, from /proc.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// sample is one metric of a wfstats registry, as /stats serves it.
type sample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
}

type statsSnap map[string]sample

// fetchStats reads the server's /stats endpoint.
func fetchStats(addr string) (statsSnap, error) {
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, fmt.Errorf("fetch /stats: %w", err)
	}
	defer resp.Body.Close()
	var list []sample
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	m := make(statsSnap, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m, nil
}

// checkConns fails unless exactly want client connections have ever
// attached: another client would share the server and skew every number.
func checkConns(addr string, want int64) error {
	st, err := fetchStats(addr)
	if err != nil {
		return err
	}
	if got := st["server.conns_total"].Value; got != want {
		return fmt.Errorf("server.conns_total is %d, expected %d: another client is attached", got, want)
	}
	return nil
}

// delta is the change of a counter between two snapshots; for histograms
// it is the change of the observation count, and sumDelta of the sum.
func delta(a, b statsSnap, name string) int64 {
	if b[name].Count != 0 || a[name].Count != 0 {
		return b[name].Count - a[name].Count
	}
	return b[name].Value - a[name].Value
}

func sumDelta(a, b statsSnap, name string) int64 { return b[name].Sum - a[name].Sum }

// machine describes where a result was measured.
func machine(gomaxprocs, serverProcs int, dataFS string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d generator_gomaxprocs=%d server_gomaxprocs=%d cpu=%q go=%s data_fs=%s",
		runtime.NumCPU(), gomaxprocs, serverProcs, cpu, runtime.Version(), dataFS)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
