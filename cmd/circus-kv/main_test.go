package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"circus"
)

// TestMultiProcessEndToEnd drives the stack across real OS processes
// over UDP — the paper's deployment environment (repro: multi-process
// on one machine): a ringmaster process, two replica processes, and
// client invocations, each a separate process.
func TestMultiProcessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	kvBin := filepath.Join(dir, "circus-kv")
	rmBin := filepath.Join(dir, "ringmaster")

	build := func(out, pkg string) {
		t.Helper()
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, msg)
		}
	}
	build(kvBin, "circus/cmd/circus-kv")
	build(rmBin, "circus/cmd/ringmaster")

	// A port that does not fit 16 bits is refused, not truncated.
	if out, err := exec.Command(rmBin, "-port", "70000").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "not in 0-65535") {
		t.Fatalf("ringmaster -port 70000: err %v, output %q", err, out)
	}

	// Start the binding agent on an ephemeral port and parse its
	// address from stdout.
	rm := exec.Command(rmBin, "-port", "0")
	rmOut, err := rm.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rm.Process.Kill(); rm.Wait() })

	binderAddr := ""
	scanner := bufio.NewScanner(rmOut)
	re := regexp.MustCompile(`serving at (\d+\.\d+\.\d+\.\d+:\d+)`)
	deadline := time.After(30 * time.Second)
	lineCh := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			if m := re.FindStringSubmatch(scanner.Text()); m != nil {
				lineCh <- m[1]
				return
			}
		}
	}()
	select {
	case binderAddr = <-lineCh:
	case <-deadline:
		t.Fatal("ringmaster never announced its address")
	}

	// Two replica processes.
	var replicas []*exec.Cmd
	for i := 0; i < 2; i++ {
		serve := exec.Command(kvBin, "-binder", binderAddr, "serve")
		out, err := serve.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := serve.Start(); err != nil {
			t.Fatal(err)
		}
		proc := serve
		t.Cleanup(func() { proc.Process.Kill(); proc.Wait() })
		replicas = append(replicas, serve)

		ready := make(chan struct{})
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if strings.Contains(sc.Text(), "replica serving") {
					close(ready)
					return
				}
			}
		}()
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			t.Fatalf("replica %d never came up", i)
		}
	}

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(kvBin, append([]string{"-binder", binderAddr}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	if out := run("put", "color", "red"); !strings.Contains(out, "2 replicas unanimous") {
		t.Fatalf("put output: %q", out)
	}
	if out := strings.TrimSpace(run("get", "color")); out != "red" {
		t.Fatalf("get = %q", out)
	}
	if out := run("members"); !strings.Contains(out, "degree 2") {
		t.Fatalf("members: %q", out)
	}

	// Kill one replica: the service must keep answering (partial
	// failure masked across OS processes).
	replicas[0].Process.Kill()
	replicas[0].Wait()
	if out := strings.TrimSpace(run("get", "color")); out != "red" {
		t.Fatalf("get after replica kill = %q", out)
	}

	// A replacement process joins with state transfer and serves the
	// existing key.
	serve := exec.Command(kvBin, "-binder", binderAddr, "serve")
	out3, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serve.Process.Kill(); serve.Wait() })
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out3)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "replica serving") {
				close(ready)
				return
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("replacement replica never came up")
	}
	if out := strings.TrimSpace(run("get", "color")); out != "red" {
		t.Fatalf("get after rejoin = %q (all live members must answer unanimously)", out)
	}
	fmt.Println("multi-process lifecycle complete")
}

// TestParseBinder: a binder address is four dotted octets and a port in
// 0–65535; anything else is refused, never truncated to something that
// parses.
func TestParseBinder(t *testing.T) {
	addr := func(a, b, c, d uint32, port uint16) circus.ModuleAddr {
		return circus.ModuleAddr{Addr: circus.Addr{Host: a<<24 | b<<16 | c<<8 | d, Port: port}}
	}
	for _, tc := range []struct {
		in   string
		want []circus.ModuleAddr // nil: refused
	}{
		{"127.0.0.1:911", []circus.ModuleAddr{addr(127, 0, 0, 1, 911)}},
		{"10.0.0.1:0, 10.0.0.2:65535", []circus.ModuleAddr{addr(10, 0, 0, 1, 0), addr(10, 0, 0, 2, 65535)}},
		{"10.1:911", nil},
		{"1.2.3.4.5:911", nil},
		{"256.0.0.1:911", nil},
		{"1.2.3.4:70000", nil},
		{"1.2.3.4:-1", nil},
		{"1.2.3.4", nil},
		{"localhost:911", nil},
		{"[::1]:911", nil},
		{"", nil},
	} {
		got, err := parseBinder(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseBinder(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBinder(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
