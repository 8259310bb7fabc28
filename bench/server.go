package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServe compiles the real cmd/serve into dir. The harness is its
// own module (bench/go.mod replaces monitorless with the parent
// directory), so the build must run from the bench directory; run.sh and
// `go run -C bench .` both start the harness there.
func buildServe(dir string) (string, error) {
	bin := filepath.Join(dir, "serve")
	out, err := exec.Command("go", "build", "-o", bin, "monitorless/cmd/serve").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build cmd/serve (run the harness from bench/, or pass -serve): %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running cmd/serve child.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited closes

	mu   sync.Mutex
	tail strings.Builder // everything the child printed after the banner
}

const (
	listenTimeout = 60 * time.Second
	drainTimeout  = 20 * time.Second
	banner        = "serving on http://"
)

// startServer launches serve on a free loopback port and waits for its
// listen banner. A child that dies first fails at once with its exit
// status and output instead of idling out the deadline.
func startServer(bin, model string, driftOff bool) (*server, error) {
	args := []string{"-model", model, "-addr", "127.0.0.1:0", "-drain", "10s"}
	if driftOff {
		args = append(args, "-drift-window", "-1")
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	found := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, banner); i >= 0 && !seen {
				seen = true
				addr := line[i+len("serving on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				found <- addr
				continue
			}
			s.mu.Lock()
			s.tail.WriteString(line)
			s.tail.WriteByte('\n')
			s.mu.Unlock()
		}
	}()
	go func() {
		// Wait closes the pipe, so let the scanner reach EOF first.
		<-scanned
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.base = <-found:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("serve exited before listening (%v); output:\n%s", s.err, s.output())
	case <-time.After(listenTimeout):
		s.kill()
		return nil, fmt.Errorf("serve did not print its listen address within %s", listenTimeout)
	}
}

func (s *server) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail.String()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// alive reports an early exit as an error.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("serve exited during the run (%v); output:\n%s", s.err, s.output())
	default:
		return nil
	}
}

// drain sends SIGTERM and requires a clean exit with the drain
// confirmation on stdout.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(drainTimeout):
		s.kill()
		return fmt.Errorf("serve did not exit within %s of SIGTERM", drainTimeout)
	}
	if s.err != nil {
		return fmt.Errorf("serve exited uncleanly after SIGTERM: %w", s.err)
	}
	if out := s.output(); !strings.Contains(out, "drained cleanly") {
		return fmt.Errorf("no clean-drain confirmation in serve's output:\n%s", out)
	}
	return nil
}

// kill stops the child unconditionally and waits for it.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU returns the user and system CPU seconds a process has used.
func procCPU(pid int) (user, sys float64, err error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	i := strings.LastIndexByte(string(body), ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(body[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return ut / clockTick, st / clockTick, nil
}

// procPeakRSSMB returns a process's high-water resident set (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// readAll drains and closes a response body, returning at most limit
// bytes of it.
func readAll(r io.ReadCloser, limit int64) ([]byte, error) {
	defer r.Close()
	return io.ReadAll(io.LimitReader(r, limit))
}
