package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one dego-server process pinned to its own CPU with GOMAXPROCS=1.
type child struct {
	cmd  *exec.Cmd
	pid  int
	addr string

	readers sync.WaitGroup
	mu      sync.Mutex
	gc      gcTally // from GODEBUG=gctrace=1 on stderr, when traced
}

// gcTally accumulates the runtime's gctrace lines.
type gcTally struct {
	cycles int
	cpuMs  float64
}

// launchChild starts dego-server on cpu and waits until it listens. The
// calling thread returns to home afterwards.
func launchChild(bin string, cpu, home int, gctrace bool) (*child, error) {
	c := &child{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "1", "-store", "adaptive")}
	env := append(os.Environ(), "GOMAXPROCS=1")
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	c.cmd.Env = env
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		outR.Close()
		outW.Close()
		return nil, err
	}
	c.cmd.Stdout, c.cmd.Stderr = outW, errW
	err = startPinned(cpu, home, c.cmd.Start)
	outW.Close()
	errW.Close()
	if err != nil {
		outR.Close()
		errR.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c.pid = c.cmd.Process.Pid

	addrCh := make(chan string, 1)
	c.readers.Add(2)
	go func() {
		defer c.readers.Done()
		defer outR.Close()
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "dego-server: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	go func() {
		defer c.readers.Done()
		defer errR.Close()
		sc := bufio.NewScanner(errR)
		for sc.Scan() {
			if cycles, ms, ok := parseGCTrace(sc.Text()); ok {
				c.mu.Lock()
				c.gc.cycles += cycles
				c.gc.cpuMs += ms
				c.mu.Unlock()
			}
		}
		io.Copy(io.Discard, errR)
	}()

	select {
	case c.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("dego-server did not report its address")
	}
	return c, nil
}

func (c *child) gcSnapshot() gcTally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gc
}

// dial connects to the child, retrying while its listener comes up.
func (c *child) dial() (*net.TCPConn, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err == nil {
			return conn.(*net.TCPConn), nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the child and waits for it and its output readers to end.
func (c *child) stop() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
	c.readers.Wait()
}

// parseGCTrace reads one gctrace line:
//
//	gc 7 @0.41s 1%: 0.01+1.2+0.003 ms clock, 0.02+0.3/0.9/0+0.01 ms cpu, ...
//
// and returns one cycle with its CPU milliseconds (the sum of the cpu terms).
func parseGCTrace(line string) (int, float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, 0, false
	}
	_, rest, ok := strings.Cut(line, " ms clock, ")
	if !ok {
		return 0, 0, false
	}
	cpu, _, ok := strings.Cut(rest, " ms cpu")
	if !ok {
		return 0, 0, false
	}
	sum := 0.0
	for _, f := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		sum += v
	}
	return 1, sum, true
}
