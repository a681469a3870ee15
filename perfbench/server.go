package main

// The server under test: srumma-serve in its own OS process (and, on the
// cluster workload, the worker processes it spawns), plus the HTTP views
// the benchmark reads from outside it: /healthz, /v1/info, /metrics and
// /debug/trace.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// traceEvents sizes the server's per-lane span ring in traced runs: large
// enough to hold every span of a traced run, so no dispatch is lost.
const traceEvents = 1 << 16

// serverProc is one running srumma-serve process group.
type serverProc struct {
	cmd  *exec.Cmd
	base string        // "http://127.0.0.1:port"
	done chan struct{} // closed once cmd.Wait returns
}

// startServer launches bin with args on a free loopback port. The server
// leads a new process group, so its cluster workers can be found and, on
// a failed shutdown, killed with it. tmpdir holds the workers' run
// directories (relative to the working directory, which keeps their unix
// socket paths short).
func startServer(bin, tmpdir string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr // keep our stdout for the report
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpdir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *serverProc) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("server exited during start-up: %v", s.cmd.ProcessState)
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %s", timeout)
}

// stop drains the server with SIGTERM, the way an operator would, and
// waits for it to exit; the server reaps its own cluster workers. If it
// does not exit in time, or leaves workers behind, the whole process
// group is killed.
func (s *serverProc) stop() error {
	pgid := s.cmd.Process.Pid
	var err error
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		if !s.cmd.ProcessState.Success() {
			err = fmt.Errorf("server exited with %v after SIGTERM", s.cmd.ProcessState)
		}
	case <-time.After(60 * time.Second):
		err = errors.New("server did not drain within 60s")
	}
	syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH when the group is already gone
	<-s.done
	for deadline := time.Now().Add(10 * time.Second); len(groupPids(pgid)) > 0; {
		if time.Now().After(deadline) {
			return errors.New("server process group survived SIGKILL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// peakRSSMB sums the peak resident set (VmHWM) of the server and every
// process in its group — the cluster workers. Each process peaks at its
// own moment, so the sum bounds the group's joint peak from above.
func (s *serverProc) peakRSSMB() (float64, error) {
	var kb int64
	for _, pid := range groupPids(s.cmd.Process.Pid) {
		v, err := vmHWM(pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	if kb == 0 {
		return 0, errors.New("no peak RSS readable for the server")
	}
	return float64(kb) / 1024, nil
}

// groupPids lists the live processes in process group pgid.
func groupPids(pgid int) []int {
	ents, _ := os.ReadDir("/proc")
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state ppid pgrp ...
		rest := string(data)
		if i := strings.LastIndexByte(rest, ')'); i >= 0 {
			rest = rest[i+1:]
		}
		f := strings.Fields(rest)
		if len(f) > 2 && f[0] != "Z" && f[2] == strconv.Itoa(pgid) {
			out = append(out, pid)
		}
	}
	return out
}

func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM", pid)
}

// getJSON decodes the JSON body of GET url into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// traceEvent is one entry of the Chrome trace GET /debug/trace serves:
// "X" slices carry a span, "M" entries name the lanes.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds since the server's trace epoch
	Dur  float64 `json:"dur"` // microseconds
	TID  int     `json:"tid"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}
