package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// benchProcs is the GOMAXPROCS of the benchmark and of every child it
// starts: the machine the numbers were calibrated on has two cores, and
// a pinned value keeps a bigger box from changing what is measured.
const benchProcs = 2

// env owns everything a run leaves behind — the work directory and the
// child processes — so that one cleanup call, made on every exit path,
// removes it all.
type env struct {
	dir  string // work directory, inside the checkout
	root string // module root: where `go build ./cmd/adsserver` runs
	log  func(format string, args ...any)

	mu    sync.Mutex
	procs []*proc // guarded by mu

	bin     string        // adsserver binary, once compiled
	compile time.Duration // what compiling it took
}

// newEnv creates a fresh work directory under parent.
func newEnv(parent string, log func(string, ...any)) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &env{dir: dir, root: root, log: log}, nil
}

// moduleRoot walks up from the working directory to the adsketch go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module adsketch")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no adsketch go.mod above the working directory")
		}
		dir = parent
	}
}

// cleanup kills and reaps every child still running, then removes the
// work directory (and its parent when that leaves it empty).
func (e *env) cleanup() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	os.RemoveAll(e.dir)
	os.Remove(filepath.Dir(e.dir)) // fails, harmlessly, unless empty
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs))
}

// compileServer builds cmd/adsserver into the work directory, once per
// env, and returns the binary's path and the build's wall time.
func (e *env) compileServer() (string, time.Duration, error) {
	if e.bin != "" {
		return e.bin, e.compile, nil
	}
	bin := e.path("adsserver")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/adsserver")
	cmd.Dir = e.root
	cmd.Env = childEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/adsserver: %v\n%s", err, out)
	}
	e.bin, e.compile = bin, time.Since(start)
	return e.bin, e.compile, nil
}

// proc is one running adsserver.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// healthPoll is the /healthz polling interval while a server starts.
const healthPoll = 2 * time.Millisecond

// startServer launches adsserver on a free loopback port and returns
// once /healthz answers.  The process is registered for cleanup.
func (e *env) startServer(bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &proc{
		cmd:    exec.Command(bin, append(args, "-addr", addr)...),
		base:   "http://" + addr,
		stderr: &bytes.Buffer{},
		exited: make(chan struct{}),
	}
	p.cmd.Env = childEnv()
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child carries no news
		close(p.exited)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("adsserver %s exited during start-up:\n%s", strings.Join(args, " "), p.stderr)
		default:
		}
		if _, err := httpGet(client, p.base+"/healthz"); err == nil {
			client.CloseIdleConnections()
			return p, nil
		}
		time.Sleep(healthPoll)
	}
	p.stop()
	return nil, fmt.Errorf("adsserver %s not healthy after 20s:\n%s", strings.Join(args, " "), p.stderr)
}

// stop kills the process and waits until it has ended.  Safe to call
// more than once.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // an already-exited child is fine
	<-p.exited
}
