package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conns counts every connection the generator dials, so the smoke test
// can assert it never holds more than two open at once.
var conns connCounter

// traffic counts the request and response body bytes of the clients.
var traffic struct{ out, in atomic.Int64 }

type connCounter struct {
	open, max, dials atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	n := c.open.Add(1)
	for {
		m := c.max.Load()
		if n <= m || c.max.CompareAndSwap(m, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// installControlTransport routes the readiness polls (ours and the
// cluster harness's) through the counting dialer without keep-alive, so
// no poll connection stays open beside the clients' own. Everything
// after boot goes through the load clients.
func installControlTransport() {
	http.DefaultTransport = &http.Transport{DialContext: conns.dial, DisableKeepAlives: true}
}

// client is one closed-loop load client: one connection at a time.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	last string // host of the pooled connection
}

func newClient() *client {
	tr := &http.Transport{
		DialContext:         conns.dial,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// do sends one request and returns the status and body. Switching to
// another host first drops the pooled connection to the previous one.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	host := url
	if i := strings.Index(url[len("http://"):], "/"); i >= 0 {
		host = url[:len("http://")+i]
	}
	if c.last != "" && c.last != host {
		c.tr.CloseIdleConnections()
	}
	c.last = host
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	traffic.out.Add(int64(len(body)))
	traffic.in.Add(int64(len(out)))
	return resp.StatusCode, out, err
}

// call is do that treats any non-2xx status as an error.
func (c *client) call(method, url string, body []byte) ([]byte, error) {
	code, out, err := c.do(method, url, body)
	if err != nil {
		return nil, err
	}
	if code/100 != 2 {
		return out, fmt.Errorf("%s %s: HTTP %d: %.200s", method, url, code, out)
	}
	return out, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// getJSON decodes a GET response into v.
func (c *client) getJSON(url string, v any) error {
	out, err := c.call("GET", url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

// server is one standalone netplaced child process.
type server struct {
	url  string
	cmd  *exec.Cmd
	wait chan error
	log  string
}

// startServer launches netplaced on a free loopback port with the given
// extra flags and waits until it answers /readyz.
func startServer(bin, dir string, extra ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(bin, dir, extra)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func tryStart(bin, dir string, extra []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	if err := ln.Close(); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(dir, "netplaced-"+strconv.Itoa(port)+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{url: "http://" + addr, cmd: cmd, wait: make(chan error, 1), log: logPath}
	go func() {
		s.wait <- cmd.Wait()
		logf.Close()
	}()
	if err := s.awaitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// awaitReady polls /readyz until it answers 200 or the process exits.
func (s *server) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case err := <-s.wait:
			s.wait <- err
			data, _ := os.ReadFile(s.log)
			return fmt.Errorf("netplaced exited while booting (%v): %s", err, data)
		default:
		}
		if resp, err := http.Get(s.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netplaced at %s not ready within %v", s.url, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and waits until it has exited.
func (s *server) stop() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill() //nolint:errcheck // it may already be gone
	}
	err := <-s.wait
	s.wait <- err
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procStat is what /proc reports for one server process.
type procStat struct {
	cpuTicks int64  // utime + stime
	hwmKB    int64  // VmHWM
	cpus     string // Cpus_allowed_list; Go sizes GOMAXPROCS from it
}

// readProc reads a process's CPU ticks, peak resident set and CPU set.
func readProc(pid int) (procStat, error) {
	var ps procStat
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name may contain spaces; fields resume after ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ps.cpuTicks = ut + st
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return ps, err
			}
			ps.hwmKB = kb
		}
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			ps.cpus = strings.TrimSpace(v)
		}
	}
	return ps, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuMS sums the CPU time of the given processes in milliseconds.
func cpuMS(pids []int) (float64, error) {
	var total int64
	for _, p := range pids {
		ps, err := readProc(p)
		if err != nil {
			return 0, err
		}
		total += ps.cpuTicks
	}
	return float64(total) * 1000 / clockTicks, nil
}

// peakRSSMB sums VmHWM over the given processes in MiB.
func peakRSSMB(pids []int) (float64, error) {
	var total int64
	for _, p := range pids {
		ps, err := readProc(p)
		if err != nil {
			return 0, err
		}
		total += ps.hwmKB
	}
	return float64(total) / 1024, nil
}

// cpuSets lists each process's Cpus_allowed_list, so the metadata shows
// which CPUs (and so how large a GOMAXPROCS) the servers ran with.
func cpuSets(pids []int) ([]string, error) {
	var out []string
	for _, p := range pids {
		ps, err := readProc(p)
		if err != nil {
			return nil, err
		}
		out = append(out, ps.cpus)
	}
	return out, nil
}

// childPIDs lists this process's direct children whose command line
// contains needle (a replica's listen address).
func childPIDs(needle string) []int {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var out []int
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, s := range strings.Fields(string(data)) {
			pid, err := strconv.Atoi(s)
			if err != nil {
				continue
			}
			cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
			if err == nil && bytes.Contains(cmdline, []byte(needle)) {
				out = append(out, pid)
			}
		}
	}
	return out
}

// stealMeter reads the host's steal time from /proc/stat.
type stealMeter struct{ steal, total int64 }

func readSteal() stealMeter {
	var m stealMeter
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i == 7 {
			m.steal = n
		}
		if i < 8 { // guest time is already counted in user time
			m.total += n
		}
	}
	return m
}

// since is the share of all CPU time stolen by the hypervisor since m.
func (m stealMeter) since() float64 {
	now := readSteal()
	if now.total <= m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}
