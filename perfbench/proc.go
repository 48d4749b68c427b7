package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one `semblock serve` process the benchmark started. The
// benchmark always ends it with stop or kill, both of which wait for it.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	debug string // the pprof listener
	log   *os.File
	done  chan struct{}
	err   error // exit status, valid once done is closed
}

// serveArgs are the flags every server run uses: periodic checkpoints off
// (the benchmark checkpoints explicitly; shutdown still takes the final
// one), a trace ring large enough to keep every /resolve trace of a run,
// and the pprof listener the benchmark uses to collect garbage between
// phases.
func serveArgs(addr, debugAddr, dataDir string) []string {
	return []string{"serve", "-addr", addr, "-debug-addr", debugAddr, "-data-dir", dataDir,
		"-checkpoint", "0", "-trace-buffer", "16384"}
}

// startServer launches the server on a free loopback port. GOMAXPROCS is
// pinned so that a host with more cores runs the load the benchmark was
// sized for.
func startServer(bin, dataDir, logPath string, gomaxprocs int) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	debugPort, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	debugAddr := "127.0.0.1:" + strconv.Itoa(debugPort)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open server log: %w", err)
	}
	cmd := exec.Command(bin, serveArgs(addr, debugAddr, dataDir)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The server must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, debug: "http://" + debugAddr, log: logf, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz until it answers 200. Readiness probes are not
// workload requests and are not counted.
func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("server exited before it was ready: %v (log %s)", p.err, p.log.Name())
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v (log %s)", timeout, p.log.Name())
}

// collectGarbage makes the server run a full GC (the pprof heap profile's
// gc=1 parameter), so that a short phase timed next starts from the same
// heap state on every run instead of wherever the collector's cycle was.
// It is a control request, not a workload request, and is not counted.
func (p *serverProc) collectGarbage() error {
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(p.debug + "/debug/pprof/heap?gc=1")
	if err != nil {
		return fmt.Errorf("collect server garbage: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("collect server garbage: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collect server garbage: HTTP %d", resp.StatusCode)
	}
	return nil
}

// stop sends SIGTERM — the graceful path that takes the final checkpoint —
// and waits for the process to exit, killing it if it overstays.
func (p *serverProc) stop(timeout time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("server ignored SIGTERM for %v", timeout)
	}
	if p.err != nil {
		return fmt.Errorf("server exited with %v (log %s)", p.err, p.log.Name())
	}
	return nil
}

// kill ends the process at once and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// vmHWM reads the process's peak resident set size in MiB.
func (p *serverProc) vmHWM() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
