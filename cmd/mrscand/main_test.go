package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mrscan"
	"repro/internal/server"
)

// TestDefaultFlags: with no arguments the command listens on :8080 and
// starts the server configuration its flag help documents.
func TestDefaultFlags(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{addr: ":8080", cfg: server.Config{
		Workers:          2,
		QueuePerTenant:   16,
		TenantQuota:      4 << 20,
		JobTimeout:       5 * time.Minute,
		DrainTimeout:     5 * time.Second,
		Retry:            mrscan.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		StreamsPerTenant: 4,
	}}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("default flags give %+v, want %+v", *o, want)
	}
}

// TestDegradeFlagsGone: the degraded-mode flags are not defined; each is
// a bad command line.
func TestDegradeFlagsGone(t *testing.T) {
	for _, arg := range []string{"-degrade-queue-depth=1", "-degrade-p95=1s", "-sample-rate=0.5"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", arg, code)
		}
		name, _, _ := strings.Cut(arg, "=")
		if want := "flag provided but not defined: " + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stderr %q, want %q", arg, stderr.String(), want)
		}
	}
}

// syncBuffer is a bytes.Buffer safe to write from run's goroutine while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingOn = regexp.MustCompile(`serving on (\S+) `)

// TestServeSmoke runs the command on a loopback port: one dataset job
// submitted over HTTP completes with the documented cluster count, and a
// stop signal drains the server clean.
func TestServeSmoke(t *testing.T) {
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-state-dir", t.TempDir()}, &stdout, &stderr, stop)
	}()
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		if m := servingOn.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving line; stdout %q, stderr %q", stdout.String(), stderr.String())
		}
	}

	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(
		`{"tenant":"acme","eps":0.1,"min_pts":20,"leaves":2,"dataset":{"dist":"twitter","n":4000,"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	var st server.JobStatus
	for deadline := time.Now().Add(30 * time.Second); !st.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", sub.ID, st.State)
		}
		resp, err := http.Get(base + "/api/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != server.StateCompleted || st.NumClusters != 49 {
		t.Fatalf("job %s: state %s, %d clusters (err %q); want completed, 49", sub.ID, st.State, st.NumClusters, st.Err)
	}

	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not return")
	}
	if !strings.Contains(stdout.String(), "drained clean") {
		t.Fatalf("stdout %q, want a clean drain", stdout.String())
	}
}
