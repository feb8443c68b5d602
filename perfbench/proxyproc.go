package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proxyProc is one cmd/botproxy process: the built-in synthetic site behind
// the detection middleware, with the fixed proxy seed, policy and CAPTCHA
// on, the online trainer off, and pprof on the admin listener.
type proxyProc struct {
	cmd      *exec.Cmd
	pub      string // public listener host:port
	admin    string // admin listener host:port
	exited   chan struct{}
	setup    time.Duration // launch to first correct response
	adminCli *http.Client
}

const (
	probeIP = "198.51.100.1"
	probeUA = "perfbench-probe/1.0"
)

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// launchProxy starts a fresh proxy and waits for its first correct response
// (a robots.txt fetch through the middleware, checked by the oracle).
func launchProxy(o options, or *oracle) (*proxyProc, error) {
	if o.botproxy == "" {
		return nil, fmt.Errorf("no -botproxy binary given")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, err := startProxy(o, or)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startProxy(o options, or *oracle) (*proxyProc, error) {
	pub, err := freePort()
	if err != nil {
		return nil, err
	}
	adm, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(o.out, "botproxy.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(o.botproxy,
		"-addr", pub, "-admin-addr", adm,
		"-seed", strconv.Itoa(proxySeed), "-pages", strconv.Itoa(proxyPages),
		"-policy=true", "-captcha=true", "-train=false", "-pprof=true")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The proxy must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proxyProc{cmd: cmd, pub: pub, admin: adm, exited: make(chan struct{}),
		adminCli: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { cmd.Wait(); close(p.exited) }()
	atExit(p.stop)

	deadline := t0.Add(15 * time.Second)
	for {
		if !p.alive() {
			return nil, fmt.Errorf("botproxy exited during start-up (see %s)", logf.Name())
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("botproxy did not answer within 15s")
		}
		c, err := dialHTTP(pub)
		if err != nil {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		x := exchange{method: "GET", path: "/robots.txt", ip: probeIP, ua: probeUA}
		err = c.roundTrip(&x)
		c.close()
		if err == nil {
			err = or.check(x.method, x.path, x.status, x.contentType, x.location, x.body)
		}
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("first response incorrect: %v", err)
		}
		p.setup = time.Since(t0)
		break
	}
	// The admin listener starts concurrently with the public one.
	for {
		if _, err := p.adminGet("/__bd/status"); err == nil {
			break
		}
		if time.Now().After(deadline) || !p.alive() {
			p.stop()
			return nil, fmt.Errorf("admin listener not up")
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

func (p *proxyProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop terminates the process and waits for it to end.
func (p *proxyProc) stop() {
	if p.alive() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(3 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

// cpu is the process's user+system CPU time from /proc/<pid>/stat.
func (p *proxyProc) cpu() time.Duration {
	return procCPU(p.cmd.Process.Pid)
}

func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 (1-based), in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// vmHWM is the peak resident set size in bytes from /proc/<pid>/status.
func vmHWM(pid int) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

func (p *proxyProc) adminGet(path string) ([]byte, error) {
	resp, err := p.adminCli.Get("http://" + p.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("admin %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// metrics scrapes /__bd/metrics.
func (p *proxyProc) metrics() (prom, error) {
	b, err := p.adminGet("/__bd/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(b), nil
}

// memStats are the runtime.MemStats fields the proxy's heap profile
// reports.
type memStats struct {
	heapAlloc     float64
	numGC         float64
	numForcedGC   float64
	gcCPUFraction float64
}

// heap forces a GC in the proxy and reads its runtime accounting from the
// debug=1 heap profile. The profile is fetched twice and the second read
// kept: each fetch runs one GC, and objects parked in sync.Pool survive the
// first in the pools' victim caches.
func (p *proxyProc) heap() (memStats, error) {
	var b []byte
	var err error
	for i := 0; i < 2 && err == nil; i++ {
		b, err = p.adminGet("/__bd/debug/pprof/heap?gc=1&debug=1")
	}
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := strings.Cut(strings.TrimPrefix(string(line), "# "), " = ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		switch k {
		case "HeapAlloc":
			m.heapAlloc, found = f, found+1
		case "NumGC":
			m.numGC, found = f, found+1
		case "NumForcedGC":
			m.numForcedGC, found = f, found+1
		case "GCCPUFraction":
			m.gcCPUFraction, found = f, found+1
		}
	}
	if found != 4 {
		return m, fmt.Errorf("heap profile lacks runtime.MemStats")
	}
	return m, nil
}

// verdictOf reads a session's final verdict class from the admin surface.
func (p *proxyProc) verdictOf(ip, ua string) (string, error) {
	b, err := p.adminGet("/__bd/admin/session?ip=" + url.QueryEscape(ip) + "&ua=" + url.QueryEscape(ua))
	if err != nil {
		return "", err
	}
	var v struct {
		Verdict struct {
			Class string `json:"class"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(b, &v); err != nil || v.Verdict.Class == "" {
		return "", fmt.Errorf("session view without a verdict: %v", err)
	}
	return v.Verdict.Class, nil
}

// prom is a parsed Prometheus text exposition: "name{labels}" → value.
type prom map[string]float64

func parseProm(b []byte) prom {
	m := prom{}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		m[string(line[:i])] += v
	}
	return m
}

// sum adds every series of a family whose labels contain all of want.
func (m prom) sum(family string, want ...string) float64 {
	var t float64
	for k, v := range m {
		name, labels, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// launchFresh measures set-up setupLaunches times, each on a fresh process,
// and keeps the last process for the workload. It checks that the kept
// process has served nothing but its probe.
func launchFresh(o options, or *oracle) (*proxyProc, float64) {
	var setups []float64
	var p *proxyProc
	for i := 0; i < setupLaunches; i++ {
		if p != nil {
			p.stop()
		}
		var err error
		p, err = launchProxy(o, or)
		if err != nil {
			invalid("proxy launch: %v", err)
		}
		setups = append(setups, p.setup.Seconds())
	}
	m, err := p.metrics()
	if err != nil {
		invalid("metrics scrape: %v", err)
	}
	if n := m.sum("botdetect_proxy_requests_total"); n != 1 {
		invalid("proxy is not fresh: %v requests served before the workload", n)
	}
	if n := m.sum("botdetect_sessions_active"); n != 1 {
		invalid("proxy is not fresh: %v sessions before the workload", n)
	}
	return p, median(setups)
}
