package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running server process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startServer launches this executable in serve mode on ckptDir and
// waits until it reports its listening address. The child gets the
// Go runtime defaults: GOGC, GOMAXPROCS and GOMEMLIMIT are removed from
// its environment.
func startServer(ckptDir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark executable: %w", err)
	}
	cmd := exec.Command(exe, "serve", "-ckpt", ckptDir)
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT":
			continue
		}
		cmd.Env = append(cmd.Env, kv)
	}
	cmd.Stderr = os.Stderr
	// The server must not outlive the load generator, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		s, _ := bufio.NewReader(out).ReadString('\n')
		line <- s
	}()
	select {
	case s := <-line:
		addr, ok := strings.CutPrefix(strings.TrimSpace(s), "listening ")
		if !ok {
			p.stop()
			return nil, fmt.Errorf("server did not start (said %q)", s)
		}
		p.base = "http://" + addr
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop() // closes the pipe, which ends the reader goroutine
		return nil, fmt.Errorf("server did not report its address within 60s")
	}
}

// stop kills the server and waits for it to exit. A crash stop leaves
// the checkpoint files exactly as the last explicit checkpoint wrote
// them, which is what recovery is measured from.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Kill() // an already-exited process is fine
	_ = p.cmd.Wait()         // the exit status of a killed server carries no information
}

// peakRSSMB reads the server's peak resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in server status")
}
