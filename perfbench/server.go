package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"npra/internal/serve"
	"npra/internal/tools/loadgen"
)

// conns is the client's connection count: the host has two cores, and
// more connections would measure the scheduler rather than npserve.
const conns = 2

// server is an npserve child process on loopback, run with its shipped
// defaults.
type server struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the child's stderr hits EOF
	client  *http.Client
}

// startServer launches npserve and waits until /healthz answers.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The server must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start npserve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{}), client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				f := strings.Fields(line[i+len("listening on "):])
				if len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.drained:
		s.stop()
		return nil, fmt.Errorf("npserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("npserve did not start listening within 30s")
	}
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	deadline := time.After(30 * time.Second)
	for {
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-poll.C:
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("npserve /healthz not ready within 30s: %v", err)
		}
	}
}

// stop drains the server with SIGTERM, kills it if the drain takes over
// ten seconds, and waits for the process to exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
}

func (s *server) pid() string { return fmt.Sprint(s.cmd.Process.Pid) }

func (s *server) metrics() (map[string]float64, error) {
	return loadgen.ScrapeMetrics(s.client, s.url)
}

// post sends one allocation request and decodes the response.
func (s *server) post(body []byte) (int, *serve.Response, error) {
	resp, err := s.client.Post(s.url+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	var out serve.Response
	if err := json.Unmarshal(blob, &out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, &out, nil
}

// result is one completed request of the closed loop.
type result struct {
	idx       int64
	latencyMS float64
	resp      *serve.Response // nil when the request failed
	err       error
}

// closedLoop keeps conns requests in flight for dur: each connection
// sends the next stream element as soon as its previous reply arrives.
// The stream index is shared, so the sequence of requests sent is the
// same whichever connection draws which element.
func (s *server) closedLoop(ctx context.Context, st *stream, first int64, dur time.Duration) []result {
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	var next atomic.Int64
	next.Store(first)
	var mu sync.Mutex
	var all []result
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				body := st.body(i, false)
				t := now()
				_, resp, err := s.post(body)
				mine = append(mine, result{idx: i, latencyMS: float64(time.Since(t).Nanoseconds()) / 1e6, resp: resp, err: err})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}
