package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// janitor owns everything the benchmark leaves outside its own memory:
// child processes and temporary directories. sweep runs on every exit path
// (normal return, error, SIGINT) and is idempotent.
type janitor struct {
	root     string // where temporary directories are made
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

func newJanitor(root string) *janitor {
	return &janitor{root: root, children: map[*child]struct{}{}, dirs: map[string]struct{}{}}
}

// tempDir creates a directory under the janitor's root that sweep will
// remove.
func (j *janitor) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(j.root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(j.root, pattern)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
	return dir, nil
}

// removeDir deletes a tempDir early.
func (j *janitor) removeDir(dir string) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	_ = os.RemoveAll(dir) // best effort: the directory is scratch space
}

func (j *janitor) sweep() {
	j.mu.Lock()
	children := make([]*child, 0, len(j.children))
	for c := range j.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(j.dirs))
	for d := range j.dirs {
		dirs = append(dirs, d)
	}
	j.dirs = map[string]struct{}{}
	j.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: the directory is scratch space
	}
}

// buildServer compiles cmd/datacelld into dir (a no-op when the binary there
// is up to date). The benchmark runs from the repository root, which is
// where the package path resolves.
func buildServer(ctx context.Context, dir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "datacelld", "main.go")); err != nil {
		return "", fmt.Errorf("run from the repository root (cmd/datacelld not found): %w", err)
	}
	bin := filepath.Join(dir, "datacelld")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/datacelld")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/datacelld: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one datacelld server process — the system under test.
type child struct {
	j       *janitor
	cmd     *exec.Cmd
	spawned time.Time
	addr    string // wire protocol address
	metrics string // /metrics URL
	stderr  bytes.Buffer
	drained chan struct{} // closed when the stdout reader has hit EOF
	once    sync.Once
}

// startWait bounds how long a child may take to print its listen addresses.
const startWait = 20 * time.Second

// startChild spawns bin in server mode on ephemeral loopback ports and
// waits (bounded) for its "serving on" and "metrics on" lines.
func (j *janitor) startChild(bin, dataDir string) (*child, error) {
	args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-ram-budget", strconv.Itoa(ramBudget))
	}
	c := &child{j: j, cmd: exec.Command(bin, args...), drained: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.spawned = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.children[c] = struct{}{}
	j.mu.Unlock()

	// The reader keeps draining after the addresses are found so the child
	// never blocks on a full pipe; lines has room for every line datacelld
	// prints before it serves.
	lines := make(chan string, 8)
	go func() {
		defer close(c.drained)
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	deadline := time.After(startWait)
	for c.addr == "" || c.metrics == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				c.kill()
				return nil, fmt.Errorf("datacelld exited before serving: %s", strings.TrimSpace(c.stderr.String()))
			}
			if rest, found := strings.CutPrefix(line, "datacelld: serving on "); found {
				c.addr = rest
			}
			if rest, found := strings.CutPrefix(line, "datacelld: metrics on "); found {
				c.metrics = rest
			}
		case <-deadline:
			c.kill()
			return nil, errors.New("datacelld did not print its addresses in time")
		}
	}
	return c, nil
}

// kill sends SIGKILL and waits for the process and its stdout reader.
func (c *child) kill() {
	c.once.Do(func() {
		_ = c.cmd.Process.Kill() // already-exited is fine
		<-c.drained              // Wait closes the pipe; read it out first
		_ = c.cmd.Wait()         // the exit status of a killed child says nothing
		c.j.mu.Lock()
		delete(c.j.children, c)
		c.j.mu.Unlock()
	})
}

// cpuSeconds reads the child's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after ") ".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	const clockTick = 100 // USER_HZ on every Linux port Go supports
	return (ut + st) / clockTick, nil
}

// rssPeakMB reads the child's peak resident set (VmHWM).
func (c *child) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is one read of the child's /metrics: sample name with labels
// (exactly as printed) → value.
type scrape map[string]float64

func (c *child) scrape(ctx context.Context) (scrape, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.metrics, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseScrape(string(body)), nil
}

func parseScrape(body string) scrape {
	out := scrape{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every sample whose name starts with prefix and contains each of
// the given label fragments (e.g. `stage="merge"`).
func (s scrape) sum(prefix string, labels ...string) float64 {
	var total float64
next:
	for name, v := range s {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
