package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon is one running ramield/ramielfe process.
type Daemon struct {
	Cmd     *exec.Cmd
	URL     string
	Argv    []string      // exact command line
	Setup   time.Duration // exec until /readyz answered 200
	log     *capBuffer
	waitErr chan error
}

// capBuffer keeps the first 64 KiB a daemon logs, for error reports.
type capBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *capBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := 64<<10 - b.buf.Len(); room > 0 {
		b.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (b *capBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr picks an unused loopback port for the daemon to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs the workload's daemon with GOMAXPROCS=procs and waits
// until its /readyz returns 200, timing that interval as the set-up time.
func startDaemon(ctx context.Context, binDir string, w Workload, procs int) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	argv := append([]string{filepath.Join(binDir, w.Daemon)}, w.daemonArgs(addr)...)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &Daemon{Cmd: cmd, URL: "http://" + addr, Argv: argv, log: &capBuffer{}, waitErr: make(chan error, 1)}
	cmd.Stdout, cmd.Stderr = d.log, d.log

	client := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", w.Daemon, err)
	}
	go func() { d.waitErr <- cmd.Wait() }()
	for {
		if err := ctx.Err(); err != nil {
			_ = d.Stop() // the context error is the one to report
			return nil, fmt.Errorf("%s not ready: %w", w.Daemon, err)
		}
		select {
		case err := <-d.waitErr:
			d.waitErr <- err
			return nil, fmt.Errorf("%s exited before ready: %v\n%s", w.Daemon, err, d.log.String())
		default:
		}
		resp, err := client.Get(d.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.Setup = time.Since(start)
				client.CloseIdleConnections()
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop sends SIGTERM (the daemons drain gracefully on it), waits for the
// process to exit, and kills it if it takes longer than 20 s.
func (d *Daemon) Stop() error {
	if d == nil || d.Cmd.Process == nil {
		return nil
	}
	_ = d.Cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	var err error
	select {
	case err = <-d.waitErr:
	case <-time.After(20 * time.Second):
		_ = d.Cmd.Process.Kill()
		err = <-d.waitErr
	}
	d.waitErr <- err // keep Stop idempotent
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("%s exited with %v\n%s", d.Argv[0], err, d.log.String())
	}
	return err
}

// ProcStats is a snapshot of a process's CPU time and peak resident set.
type ProcStats struct {
	CPU    time.Duration // user + system
	HWMkiB int64         // VmHWM
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

func readProcStats(pid int) (ProcStats, error) {
	var ps ProcStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	ps.CPU = time.Duration(utime+stime) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			ps.HWMkiB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return ps, err
		}
	}
	return ps, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// hostSteal is the CPU time the hypervisor gave to other guests, summed
// over all CPUs (the steal column of /proc/stat); 0 where not reported.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
