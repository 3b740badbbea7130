package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit set large enough for any host this runs
// on (1024 CPUs).
type cpuMask [16]uint64

func maskOf(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	return m
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinProcess moves every thread of this process to cpu. Threads created
// later inherit the mask of the thread that creates them.
func pinProcess(cpu int) error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, maskOf(cpu)); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("pin thread %d to cpu %d: %w", tid, cpu, err)
		}
	}
	return nil
}

// startPinned runs start on a thread whose affinity is cpu for the duration
// of the call, so a child forked by start inherits that CPU. The calling
// thread's own mask is restored to home afterwards.
func startPinned(cpu, home int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tid := syscall.Gettid()
	if err := setAffinity(tid, maskOf(cpu)); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(tid, maskOf(home)); err == nil {
		err = rerr
	}
	return err
}

// setTimerSlack asks the kernel to wake this thread's sleeps within 1 ns of
// their deadline instead of the default 50 µs slack.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepNs blocks the calling OS thread for d with nanosleep. Go's time.Sleep
// parks the goroutine on the netpoller, whose timeout is whole milliseconds
// when the process is otherwise idle, so it cannot pace sub-millisecond gaps.
func sleepNs(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

const clockTick = 10 * time.Millisecond // USER_HZ = 100 on Linux

// procCPU returns utime+stime of pid from /proc/<pid>/stat. Its resolution
// is one clock tick (10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time (getrusage).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatus returns the named fields of /proc/<pid>/status ("self" for this
// process), verbatim.
func procStatus(pid string, names ...string) (map[string]string, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, n := range names {
			if k == n {
				out[k] = strings.TrimSpace(v)
			}
		}
	}
	return out, sc.Err()
}

// peakRSSMB reads VmHWM of pid in MiB.
func peakRSSMB(pid string) (float64, error) {
	st, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	v := strings.TrimSuffix(st["VmHWM"], " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM of %s: %q", pid, st["VmHWM"])
	}
	return kb / 1024, nil
}

// resetPeakRSS restarts VmHWM from the current RSS, so the peak covers only
// the measured phases and not the set-up before them.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}
