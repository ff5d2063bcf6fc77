package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process under test.
type proc struct {
	name    string // availd, availgw or tracker
	cmd     *exec.Cmd
	httpURL string // base URL serving /healthz and /metrics ("" for tracker)
	ready   chan struct{}
	exited  chan struct{}
	waitErr error
}

// clusterOpts describes the cluster a workload runs against.
type clusterOpts struct {
	binDir   string
	workDir  string   // per-run scratch; node data dirs live below it
	dataDirs []string // node data dirs to boot from (copied fresh per launch); nil = empty
	tracker  bool
}

// cluster is availgw over two durable availd nodes, plus the UDP
// tracker on the monitor workload.
type deployment struct {
	procs      []*proc
	nodes      []*proc
	gw         *proc
	gwBin      string // availgw -ingest-bin address
	nodeBins   []string
	trackerUDP string
	dirs       []string
}

const nodeCount = 2

// freePorts reserves n distinct loopback ports of network ("tcp" or
// "udp") by binding them all, then releasing them for the servers to
// bind. The ports are drawn below Linux's default ephemeral range
// (32768 and up): a port in that range can be handed to an outgoing
// connection, such as the health poller's, between the release and
// the server's bind, and the server then fails to start.
func freePorts(network string, n int) ([]string, error) {
	var out []string
	var held []io.Closer
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for tries := 0; len(out) < n; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free %s port below 32768", network)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", 10000+rand.Intn(32768-10000))
		var c io.Closer
		var err error
		if network == "udp" {
			c, err = net.ListenPacket("udp", addr)
		} else {
			c, err = net.Listen("tcp", addr)
		}
		if err != nil {
			continue
		}
		held = append(held, c)
		out = append(out, addr)
	}
	return out, nil
}

// startProc launches one binary with its output captured in logPath.
// readyLine, when set, marks the process ready once a stdout line
// contains it (the tracker has no health endpoint).
func startProc(name, bin, logPath string, args []string, readyLine string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The servers die with the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	p := &proc{name: name, cmd: cmd, ready: make(chan struct{}), exited: make(chan struct{})}
	var stdout io.ReadCloser
	if readyLine != "" {
		if stdout, err = cmd.StdoutPipe(); err != nil {
			logf.Close()
			return nil, err
		}
	} else {
		cmd.Stdout = logf
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if stdout != nil {
		go func() {
			sc := bufio.NewScanner(stdout)
			signalled := false
			for sc.Scan() {
				fmt.Fprintln(logf, sc.Text())
				if !signalled && strings.Contains(sc.Text(), readyLine) {
					close(p.ready)
					signalled = true
				}
			}
		}()
	}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop kills the process and waits for it to end.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, p *proc) error {
	if p.httpURL == "" {
		select {
		case <-p.ready:
			return nil
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("%s: not ready: %w", p.name, ctx.Err())
		}
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.httpURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("%s: not healthy: %w", p.name, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// launch starts the cluster and returns it with its set-up time: from
// the first process launch until every process answers healthy. On the
// read workload this includes each node's durable recovery.
func launch(o clusterOpts, tag string) (*deployment, float64, error) {
	c := &deployment{}
	ports, err := freePorts("tcp", 2*nodeCount+2)
	if err != nil {
		return nil, 0, err
	}
	var nodeURLs []string
	for i := 0; i < nodeCount; i++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("%s-node%d", tag, i))
		if o.dataDirs != nil {
			if err := copyDir(o.dataDirs[i], dir); err != nil {
				return nil, 0, err
			}
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		c.dirs = append(c.dirs, dir)
		nodeURLs = append(nodeURLs, "http://"+ports[2*i])
		c.nodeBins = append(c.nodeBins, ports[2*i+1])
	}
	gwHTTP, gwBin := ports[2*nodeCount], ports[2*nodeCount+1]
	c.gwBin = gwBin

	t0 := time.Now()
	for i := 0; i < nodeCount; i++ {
		p, err := startProc("availd", filepath.Join(o.binDir, "availd"),
			filepath.Join(o.workDir, fmt.Sprintf("%s-node%d.log", tag, i)),
			[]string{
				"-listen", ports[2*i], "-ingest-bin", ports[2*i+1],
				"-data-dir", c.dirs[i], "-fsync", "batch", "-checkpoint-every", "0",
				"-shards", "2", "-log-level", "warn",
			}, "")
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		p.httpURL = nodeURLs[i]
		c.procs = append(c.procs, p)
		c.nodes = append(c.nodes, p)
	}
	gw, err := startProc("availgw", filepath.Join(o.binDir, "availgw"),
		filepath.Join(o.workDir, tag+"-gw.log"),
		[]string{
			"-listen", gwHTTP, "-nodes", strings.Join(nodeURLs, ","),
			"-ingest-bin", gwBin, "-node-bins", strings.Join(c.nodeBins, ","),
			"-health-every", "1h", "-log-level", "warn",
		}, "")
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	gw.httpURL = "http://" + gwHTTP
	c.gw = gw
	c.procs = append(c.procs, gw)
	if o.tracker {
		udp, err := freePorts("udp", 1)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		tr, err := startProc("tracker", filepath.Join(o.binDir, "tracker"),
			filepath.Join(o.workDir, tag+"-tracker.log"),
			[]string{"-addr", "127.0.0.1:0", "-udp", udp[0]},
			"tracker listening on udp://")
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.trackerUDP = udp[0]
		c.procs = append(c.procs, tr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range c.procs {
		if err := waitHealthy(ctx, p); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(t0).Seconds(), nil
}

// stop kills every process and waits for each to end.
func (c *deployment) stop() {
	for _, p := range c.procs {
		p.stop()
	}
}

// remove stops the cluster and deletes its data dirs.
func (c *deployment) remove() {
	c.stop()
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// cpuTicks returns a process's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// The command name (field 2) may hold spaces; fields resume after ')'.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + k, nil
}

// clockTick is USER_HZ, 100 on every Linux this runs on.
const clockTick = 100

// cpuSeconds returns each process's CPU seconds so far, by name.
func (c *deployment) cpuSeconds() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range c.procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[p.name] += float64(t) / clockTick
	}
	return out, nil
}

// peakRSSMiB sums VmHWM over the server processes.
func (c *deployment) peakRSSMiB() (float64, error) {
	var kb float64
	for _, p := range c.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				kb += v
			}
		}
	}
	return kb / 1024, nil
}

// dirBytes sums the sizes of the regular files below dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
