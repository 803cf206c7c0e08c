package main

// server.go manages the ukserver process: launch on a free loopback port
// with stderr (the per-request log) sent to a file, a fine-grained
// readiness poll, kill-and-reap on every exit path, the /proc readings
// behind cpu_ms_per_req and server_rss_peak_mb, and /metrics scrapes.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (fixed at 100 on Linux).
const userHZ = 100

// server is one running ukserver process.
type server struct {
	cmd     *exec.Cmd
	base    string
	addr    string
	logPath string
	log     *os.File
	exited  chan struct{}
	stopped sync.Once
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin on a free loopback port. The caller must stop it.
func launch(bin string, flags []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, addr: addr, logPath: logPath, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls the listener every 100µs until it accepts a connection,
// so the measured setup time is the server's and not the poll's.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("ukserver exited during boot: %s", s.logTail())
		default:
		}
		conn, err := net.DialTimeout("tcp", s.addr, 50*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ukserver not ready after %v: %v; log: %s", timeout, err, s.logTail())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop kills and reaps the server; safe to call more than once.
func (s *server) stop() {
	s.stopped.Do(func() {
		_ = s.cmd.Process.Kill()
		<-s.exited
		s.log.Close()
	})
}

// logTail returns the end of the server's log for error messages.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTicks returns the server's user+system CPU time in USER_HZ ticks.
func (s *server) cpuTicks() (uint64, error) {
	path := fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading server CPU time: %w", err)
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: unexpected format", path)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: %d fields", path, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: parsing utime/stime %q %q", path, f[11], f[12])
	}
	return utime + stime, nil
}

// peakRSSMiB returns the server's VmHWM in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reading server peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("%s: unexpected %q", path, line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// promSample is one exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape fetches and parses the server's Prometheus exposition.
func scrape(hc *http.Client, base string) ([]promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(body)
}

// parseProm parses the text exposition: name{labels} value, ignoring
// comments and any trailing exemplar.
func parseProm(body []byte) ([]promSample, error) {
	var out []promSample
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(line, "{ "); i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		} else if line[i] == '{' {
			s.name = line[:i]
			n, err := parseLabels(line[i+1:], s.labels)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
			rest = line[i+1+n:]
		} else {
			s.name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, nil
}

// parseLabels reads k="v",... up to the closing brace into m and returns
// the number of bytes consumed, brace included.
func parseLabels(s string, m map[string]string) (int, error) {
	i := 0
	for {
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, fmt.Errorf("malformed labels")
		}
		key := strings.TrimLeft(s[i:i+eq], ",")
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				if s[j] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		m[key] = val.String()
		i = j + 1
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// sumSeries totals the samples of name whose labels include match, failing
// when no sample matches: a missing series is an error, never a zero.
func sumSeries(samples []promSample, name string, match map[string]string) (float64, error) {
	total, n := 0.0, 0
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("/metrics has no %s series matching %v", name, match)
	}
	return total, nil
}
